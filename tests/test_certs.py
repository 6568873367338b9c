"""The one rule for "this form vanishes"."""

from cinfstruct.calculus import KForm
from cinfstruct.certs import form_vanishes
from cinfstruct.charts import Chart
from cinfstruct.zerotest import DEFAULT_POLICY, Certainty

CH = Chart("P", ("x", "y", "z"))


def test_the_empty_form_gives_one_proved_item_under_the_bare_label():
    (item,) = form_vanishes("w = 0", KForm.make(CH, 2, {}), DEFAULT_POLICY)
    assert item.label == "w = 0"
    assert item.ok and item.result.certainty is Certainty.PROVED_ZERO


def test_one_item_per_coefficient_in_the_form_s_order():
    p = CH.parse
    w = KForm.make(CH, 1, {(2,): p("exp(2*x) - exp(x)^2"), (0,): p("x - y")})
    items = form_vanishes("w = 0", w, DEFAULT_POLICY)
    assert [it.label for it in items] == ["w = 0 [d %s]" % CH.coords[i] for (i,), _ in w.coeffs]
    by_label = {it.label: it for it in items}
    sampled = by_label["w = 0 [d z]"]
    assert sampled.ok and sampled.result.certainty is Certainty.PROBABLY_ZERO
    nonzero = by_label["w = 0 [d x]"]
    assert not nonzero.ok
    assert nonzero.result.witness is not None
