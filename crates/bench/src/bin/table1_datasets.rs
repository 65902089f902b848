//! Regenerates the paper's table1 (see `ce_bench::experiments::table1`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[table1_datasets] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::table1::run(scale);
}
