//! Regenerates the paper's fig11 (see `ce_bench::experiments::fig11`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!("[fig11_ablations] running at AUTOCE_SCALE={}", scale.0);
    ce_bench::experiments::fig11::run(scale);
}
