//! Regenerates the paper's table5 (see `ce_bench::experiments::table5`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[table5_e2e] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::table5::run(scale);
}
