"""The bytes of render_report in each format, for one synthetic report."""

from fractions import Fraction

import pytest

from catalankit.reporting import CompareReport, RepRow, exact_values_differ, render_report

ROWS = (
    RepRow("exact_row", Fraction(-7, 3)),
    RepRow("float_row", 0.1, err=2.5e-17, terms=42, note="ascending branch"),
    RepRow("int_row", 12, compare=False, note="reported only"),
    RepRow("skipped_row", note='outside, "float" range'),
)
NOTES = ("first note", 'second, "quoted" note')
REPORTS = {
    # rows compared: max_pairwise_rel_diff is a number
    "compared": CompareReport(
        "demo", (("a", Fraction(1, 2)), ("b", 2.0), ("n", 3), ("rep", "all")), ROWS, NOTES
    ),
    # no row compared: max_pairwise_rel_diff is None
    "uncompared": CompareReport("demo", (("tol", 1e-10),), ROWS[2:], NOTES),
}

EXPECTED = {
    ("compared", "text"): """\
demo  a=1/2 b=2 n=3 rep=all
rep          value                err                     exact  terms  note
exact_row    -7/3                                         yes
float_row    0.10000000000000001  2.4999999999999999e-17  no     42     ascending branch
int_row      12                                           yes           reported only
skipped_row  skipped                                                    outside, "float" range
max_pairwise_rel_diff 1.0428571428571429
note: first note
note: second, "quoted" note""",
    ("compared", "json"): (
        '{"command":"demo","input":{"a":"1/2","b":2,"n":3,"rep":"all"},'
        '"max_pairwise_rel_diff":1.0428571428571429,'
        '"notes":["first note","second, \\"quoted\\" note"],"results":['
        '{"err":null,"exact":true,"note":"","rep":"exact_row","skipped":false,'
        '"terms":null,"value":"-7/3"},'
        '{"err":2.4999999999999999e-17,"exact":false,"note":"ascending branch",'
        '"rep":"float_row","skipped":false,"terms":42,"value":0.10000000000000001},'
        '{"err":null,"exact":true,"note":"reported only","rep":"int_row","skipped":false,'
        '"terms":null,"value":12},'
        '{"err":null,"exact":false,"note":"outside, \\"float\\" range","rep":"skipped_row",'
        '"skipped":true,"terms":null,"value":null}]}'
    ),
    ("compared", "csv"): """\
rep,value,err,exact,terms,note,skipped
exact_row,-7/3,,true,,,false
float_row,0.10000000000000001,2.4999999999999999e-17,false,42,ascending branch,false
int_row,12,,true,,reported only,false
skipped_row,,,false,,"outside, ""float"" range",true""",
    ("uncompared", "text"): """\
demo  tol=1e-10
rep          value    err  exact  terms  note
int_row      12            yes           reported only
skipped_row  skipped                     outside, "float" range
note: first note
note: second, "quoted" note""",
    ("uncompared", "json"): (
        '{"command":"demo","input":{"tol":1e-10},"max_pairwise_rel_diff":null,'
        '"notes":["first note","second, \\"quoted\\" note"],"results":['
        '{"err":null,"exact":true,"note":"reported only","rep":"int_row","skipped":false,'
        '"terms":null,"value":12},'
        '{"err":null,"exact":false,"note":"outside, \\"float\\" range","rep":"skipped_row",'
        '"skipped":true,"terms":null,"value":null}]}'
    ),
    ("uncompared", "csv"): """\
rep,value,err,exact,terms,note,skipped
int_row,12,,true,,reported only,false
skipped_row,,,false,,"outside, ""float"" range",true""",
}


@pytest.mark.parametrize("name, fmt", list(EXPECTED))
def test_render_report_bytes(name, fmt):
    assert render_report(REPORTS[name], fmt) == EXPECTED[name, fmt]



def test_unequal_exact_rows_fail_at_any_tolerance():
    third = Fraction(1, 3)
    rows = (RepRow("x", third), RepRow("y", third + Fraction(1, 10**20)), RepRow("z", 1 / 3))
    report = CompareReport("demo", (), rows)
    assert report.exact_rows_differ and not report.within(1.0)
    # float and mixed pairs keep the tolerance rule; a reported-only row is not compared
    agreed = report._replace(rows=(rows[0], rows[2], rows[1]._replace(compare=False)))
    assert not agreed.exact_rows_differ and agreed.within(1e-8)
    assert exact_values_differ([2, Fraction(2)]) is False
