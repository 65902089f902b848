//! Regenerates the paper's table4 (see `ce_bench::experiments::table4`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[table4_knn_k] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::table4::run(scale);
}
