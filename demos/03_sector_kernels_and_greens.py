"""Sector heat kernels and Green's functions: three expressions, one object.

On an infinite sector of opening gamma the heat kernel has
  * a separated-variables series over modified Bessel functions I_{mu_j},
  * a method-of-images form when gamma = pi / n (Dirichlet edges), and
  * a Laplace transform equal to the Kontorovich-Lebedev integral for the
    Green's function of s + Laplacian.
This script evaluates all three and shows they coincide to near machine
precision, then checks the transform identity int_0^inf e^{-st} H dt = G.
"""

import math

from heattrace import (
    DIRICHLET,
    NEUMANN,
    SectorSpec,
    greens_half_plane_images,
    greens_kl,
    laplace_consistency,
    mode_order,
    sector_heat_kernel,
)

PI = math.pi

print("1. Series kernel vs image sum (gamma = pi/3, Dirichlet edges)")
spec = SectorSpec(PI / 3)
t, r, th, r0, th0 = 0.15, 0.8, 0.4, 1.2, 0.9
series = sector_heat_kernel(spec, t, r, th, r0, th0, tol=1e-14)
images = 0.0
for k in range(3):
    for sign, ang in ((1.0, th0 + 2 * k * PI / 3), (-1.0, -th0 + 2 * k * PI / 3)):
        d2 = r * r + r0 * r0 - 2 * r * r0 * math.cos(th - ang)
        images += sign * math.exp(-d2 / (4 * t)) / (4 * PI * t)
print(f"   series = {series:.15f}")
print(f"   images = {images:.15f}")
print(f"   diff   = {abs(series - images):.2e}")

print()
print("2. Kontorovich-Lebedev integral vs images (gamma = pi half-plane)")
for bc, label in ((DIRICHLET, "Dirichlet"), (NEUMANN, "Neumann")):
    half = SectorSpec(PI, bc, bc)
    kl = greens_kl(half, 2.0, 0.9, 1.0, 1.4, 2.1, tol=1e-11)
    im = greens_half_plane_images(bc, 2.0, 0.9, 1.0, 1.4, 2.1)
    print(f"   {label:>9}: KL = {kl:.12f}, images = {im:.12f}, diff = {abs(kl - im):.1e}")

print()
print("3. Laplace-transform consistency  |int e^{-st} H dt - G(s)|")
for s in (1.0, 4.0):
    res_hp = laplace_consistency(NEUMANN, s, [((1.0, PI / 2), (2.0, PI / 2))])
    res_se = laplace_consistency(SectorSpec(PI), s, [((0.9, 1.1), (1.4, 2.0))])
    print(f"   s = {s}: half-plane N residual = {res_hp:.2e}, sector D-D residual = {res_se:.2e}")

print()
print("4. The mixed D-N sector has half-integer angular orders;")
spec_dn = SectorSpec(PI / 2, DIRICHLET, NEUMANN)
for j in (1, 2, 3):
    print(f"   mode {j}: Bessel order {mode_order(spec_dn.pair, spec_dn.gamma, j - 1):.1f}")
