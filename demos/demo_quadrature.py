"""
Numeric primitives of exact 1-forms by quadrature
=================================================

When a reduction hands back a closed 1-form M dx + N du on a 2-coordinate
chart, a primitive is one line integral away.  primitive_by_quadrature
certifies closedness symbolically, then evaluates F(x, u) along an L-shaped
path with an adaptive 21-point Gauss-Kronrod rule.
"""

import math

from cinfstruct.calculus import KForm, d_of_function
from cinfstruct.charts import Chart
from cinfstruct import factors as fc

ch = Chart("P", ("x", "u"))

F = ch.parse("x^2*u + sin(x)")
form = d_of_function(ch, F)
prim = fc.primitive_by_quadrature(form)
print("closedness and gradient checks:", prim.ok)

# The primitive is normalized by F(base) = 0, so compare against the exact
# potential minus its value at the origin.
print("\n   x      u      quadrature     exact        error")
for x, u in [(0.5, 0.25), (-0.3, 0.7), (0.8, -0.6), (0.1, 0.1)]:
    got = prim(x, u)
    want = x * x * u + math.sin(x)
    print(
        "%6.2f %6.2f  %12.9f %12.9f  %9.2e"
        % (x, u, got, want, abs(got - want))
    )

# A non-exact form is refused with the failing check named.
leaky = fc.primitive_by_quadrature(KForm.make(ch, 1, {(0,): ch.parse("u")}))
print("\nu dx accepted:", leaky.ok)
for item in leaky.certificate.items:
    if not item.ok:
        print("  failing check:", item.label)
