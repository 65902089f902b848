//! Regenerates the paper's table2 (see `ce_bench::experiments::table2`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[table2_accuracy] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::table2::run(scale);
}
