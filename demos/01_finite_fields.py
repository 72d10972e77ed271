"""Tour of the exact finite-field layer.

Fields are built deterministically (lexicographically smallest monic
irreducible modulus), elements are plain ints, and the extension
GF(q^n) doubles as a vector space over GF(q) through to_vector /
from_vector.  Run: python demos/01_finite_fields.py
"""

from cdcodes import GF, extension_field

# GF(4) = GF(2^2).  Codes: 0, 1, 2 = alpha, 3 = alpha + 1.
f4 = GF(2, 2)
print(f"GF(4) modulus (low degree first): {f4.modulus}")
print(f"alpha * alpha = {f4.mul(2, 2)}  (code 3 is alpha + 1)")
print(f"alpha^-1     = {f4.inv(2)}")

# Operations compose on the raw codes.
print(f"(alpha + 1) * alpha = {f4.mul(f4.add(2, 1), 2)}")

# GF(2^6) over GF(2): 64 elements, power basis (1, a, ..., a^5).
e = extension_field(2, 6)
print(f"\nGF(2^6): order {e.order}, modulus {e.modulus}")
x = 37
print(f"x = {x} has coordinates {e.to_vector(x)} over GF(2)")
print(f"round trip: {e.from_vector(e.to_vector(x)) == x}")

# Frobenius x -> x^q is GF(q)-linear and has order n.
orbit = [x]
while True:
    nxt = e.frobenius(orbit[-1], 1)
    if nxt == x:
        break
    orbit.append(nxt)
print(f"Frobenius orbit of {x}: {orbit} (length divides n = 6)")

# Subfield elements (codes below q) are fixed points.
print(f"frobenius fixes GF(2): {[e.frobenius(c, 1) for c in (0, 1)]}")

# GF(9) over GF(3), to show an odd characteristic.
f9 = GF(3, 2)
print(f"\nGF(9) modulus: {f9.modulus}  (x^2 + 1 over GF(3))")
print(f"2 * 2 = {f9.mul(2, 2)}, beta * beta = {f9.mul(3, 3)} (beta^2 = -1 = 2)")
