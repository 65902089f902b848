//! Regenerates the paper's fig9 (see `ce_bench::experiments::fig9`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[fig9_vs_fixed_models] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::fig9::run(scale);
}
