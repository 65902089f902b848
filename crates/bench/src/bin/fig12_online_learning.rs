//! Regenerates the paper's fig12 (see `ce_bench::experiments::fig12`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!(
        "[fig12_online_learning] running at AUTOCE_SCALE={}",
        scale.0
    );
    ce_bench::experiments::fig12::run(scale);
}
