//! Regenerates the paper's fig8 (see `ce_bench::experiments::fig8`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!(
        "[fig8_selection_strategies] running at AUTOCE_SCALE={}",
        scale.0
    );
    ce_bench::experiments::fig8::run(scale);
}
