"""Every degenerate configuration, and what the engine does with it."""

from bicircle import (
    DEFAULT_Q_SAMPLES,
    InvalidScenario,
    ProbePoint,
    ScenarioConfig,
    construct_image,
    derive,
    validate,
    verify_concurrency,
)

worked = ScenarioConfig(2, 3, 2)
scene = derive(worked)

# 1. Probe on the axis: chords run along the axis, M = A and N = D, and the
#    lines are replaced by the vertical tangents at A and D. Parallel
#    tangents meet at infinity, straight up.
result = construct_image(scene, ProbePoint(3, 0))
print("probe on axis:")
print("  M =", result.M, " N =", result.N)
print("  line AM ->", result.line_am, " line DN ->", result.line_dn)
print("  image:", result.p_prime)

# 2. Probe line through B: the chord B-P is tangent at B, N = B, and the
#    image collapses to the single point A no matter where P sits.
print("\nprobe line through B:")
for q in (1, 2, -5):
    print("  q =", q, "->", construct_image(scene, ProbePoint(0, q)).p_prime.point)

# 3. Externally tangent circles: AM and DN stay parallel for every probe.
tangent = ScenarioConfig(2, 2, 2)
tangent_scene = derive(tangent)
print("\ntangent circles:")
for p, q in ((1, 1), (-3, 2), (5, -1)):
    result = construct_image(tangent_scene, ProbePoint(p, q))
    print(f"  P = ({p}, {q}) -> image {result.p_prime}")

# 4. One circle inside the other is out of range and rejected up front.
print("\ncontainment:")
try:
    validate(ScenarioConfig(1, 5, 1))
except InvalidScenario as exc:
    print("  rejected:", exc)

# 5. Properly intersecting circles: probes on the radical axis map back onto
#    it, so AM, DN and the radical axis pass through one point.
print("\nconcurrency on the radical axis:", verify_concurrency(scene, DEFAULT_Q_SAMPLES))
