"""Render the four standard figure styles into demos/output/."""

from pathlib import Path

from bicircle import (
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    construct_image,
    derive,
    render_svg,
)

OUT = Path(__file__).parent / "output"

worked = ScenarioConfig(2, 3, 2)

# (name, scenario, p, q, render options)
FIGURES = [
    # Probe on the radical axis: AM, DN and the radical axis share one point,
    # and the image line coincides with the probe line.
    ("concurrency", worked, derive(worked).radical_axis_x, 1, {}),
    # Generic probe; the far-away image point is kept on canvas by clipping.
    ("generic", worked, 2, 1, {"clip": True}),
    # Probe on the axis: tangent lines at A and D, image at infinity.
    ("probe_on_axis", worked, 3, 0, {}),
    # Probe line through B: the image collapses to A.
    ("probe_through_b", worked, 0, 2, {}),
    # Externally tangent circles: AM and DN are parallel.
    ("touching", ScenarioConfig(2, 2, 2), 1, 1, {}),
    # The same generic figure without clipping, for comparison.
    ("generic_wide", worked, 2, 1, {}),
]


def figure(cfg, p, q, **options) -> str:
    """SVG text of one figure."""
    scene = derive(cfg)
    probe = ProbePoint(p, q)
    spec = RenderSpec(
        scene=scene, probe=probe, result=construct_image(scene, probe), **options
    )
    return render_svg(spec)


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for name, cfg, p, q, options in FIGURES:
        path = OUT / f"{name}.svg"
        path.write_text(figure(cfg, p, q, **options), encoding="utf-8")
        print("wrote", path)
