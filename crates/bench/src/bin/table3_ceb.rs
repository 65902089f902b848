//! Regenerates the paper's table3 (see `ce_bench::experiments::table3`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[table3_ceb] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::table3::run(scale);
}
