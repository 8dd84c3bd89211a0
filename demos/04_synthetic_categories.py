"""
Synthetic category presets and plot data
========================================

Five shipped generator presets sketch common AI product categories with
qualitatively different rating spreads: open-ended generation is broad
(high entropy), recommendation surfaces are moderate, constrained
assistive features are tightly concentrated. Generating from them and
evaluating recovers that ordering, which is exactly what the fig1 plot
data shows.
"""

from adux import (
    Dataset,
    category_presets,
    emit_plot_data,
    evaluate,
    gen_ratings,
)

specs = category_presets(seed=777)
datasets = [gen_ratings(spec) for spec in specs]
merged = Dataset(
    space=datasets[0].space,
    observations=tuple(o for ds in datasets for o in ds.observations),
)
print(f"generated {len(merged)} sessions across {len(specs)} categories")

report = evaluate(merged.counts())

print()
print("fig1 plot data (category, iei_bits, iei_normalized):")
print(emit_plot_data(report, "fig1"))

print("fig2 plot data, first rows (category, t, u, fitted_u):")
fig2 = emit_plot_data(report, "fig2").strip().split("\n")
for line in fig2[:10]:
    print(" ", line)
print(f"  ... {len(fig2) - 10} more rows")

print()
print("full per-category picture:")
for cat in report.categories:
    tdc = (f"TDC {cat.tdc.beta1:+.3f}" if cat.tdc is not None
           else f"TDC n/a ({cat.tdc_reason})")
    bucs = (f"completion HDI [{cat.bucs.interval.lower:.3f}, "
            f"{cat.bucs.interval.upper:.3f}]" if cat.bucs is not None
            else f"BUCS n/a ({cat.bucs_reason})")
    print(f"  {cat.name:26s} IEI {cat.iei.value:.3f} bits | {tdc} | {bucs}")
