//! Regenerates the paper's fig13 (see `ce_bench::experiments::fig13`).
fn main() {
    let scale = ce_bench::Scale::from_env();
    eprintln!(
        "[fig13_online_adapting] running at AUTOCE_SCALE={}",
        scale.0
    );
    ce_bench::experiments::fig13::run(scale);
}
