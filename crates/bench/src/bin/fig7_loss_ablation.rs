//! Regenerates the paper's fig7 (see `ce_bench::experiments::fig7`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[fig7_loss_ablation] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::fig7::run(scale);
}
