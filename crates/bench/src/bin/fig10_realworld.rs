//! Regenerates the paper's fig10 (see `ce_bench::experiments::fig10`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[fig10_realworld] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::fig10::run(scale);
}
