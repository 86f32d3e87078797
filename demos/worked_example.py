"""Walk through the construction once, step by step, with exact numbers.

Scene: k1 centered at (-2, 0) with radius 3, k2 at (2, 0) with radius 2,
so the axis points are A=(-5,0), B=(0,0), C=(1,0), D=(4,0). The probe P
sits at (2, 1).
"""

from fractions import Fraction

from bicircle import (
    ProbePoint,
    ScenarioConfig,
    construct_image,
    derive,
    image_closed_form,
    tangent_half_params,
    validate,
)

cfg = ScenarioConfig(a=2, r1=3, r2=2)
print("ordering:", validate(cfg).value)

scene = derive(cfg)
print("A =", scene.A, " B =", scene.B, " C =", scene.C, " D =", scene.D)
print("radical axis: x =", scene.radical_axis_x)

probe = ProbePoint(2, 1)
result = construct_image(scene, probe)

print("\nchord C-P meets k1 again at  M =", result.M)
print("chord B-P meets k2 again at  N =", result.N)
print("line AM:", result.line_am)
print("line DN:", result.line_dn)
print("image   P' =", result.p_prime.point)

# The closed form reaches the same point without constructing anything.
print("closed form:", image_closed_form(cfg, probe).point)

# The circle parameters behind M and N.
u, v = tangent_half_params(scene, probe)
print("tangent-half parameters: u =", u, " v =", v)

# Move P up and down its vertical line: the image slides along x = 13.
print("\nimage points for probes on x = 2:")
for q in (Fraction(1, 2), 1, 3, -2, Fraction(22, 7)):
    image = image_closed_form(cfg, ProbePoint(2, q))
    print(f"  q = {str(q):>5}  ->  P' = {image.point}")
