"""The record types: read-only, equal by fields, with their defaults."""

from fractions import Fraction

import pytest

from catalankit.functional import SeriesEvaluation
from catalankit.quad import QuadResult
from catalankit.reporting import CompareReport, RepRow
from catalankit.series import PowerSeries

# (type, fields, a field name, another value for it)
RECORDS = [
    (RepRow, dict(rep="quadrature", value=1.5, err=1e-12, terms=45), "value", 2.5),
    (CompareReport, dict(command="c2", inputs=(("n", 2),), rows=(RepRow("a", 1),), notes=()),
     "notes", ("a note",)),
    (QuadResult, dict(value=1.5, abs_err_est=1e-12, evaluations=45), "evaluations", 46),
    (SeriesEvaluation, dict(value=0.25, branch="ascending", ratio=0.5, terms=12),
     "branch", "descending"),
    (PowerSeries, dict(coeffs=(Fraction(1), Fraction(2))), "coeffs", (Fraction(1),)),
]


@pytest.mark.parametrize("cls, fields, name, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_a_record_is_read_only_and_equal_by_its_fields(cls, fields, name, other):
    record = cls(**fields)
    assert record == cls(**fields)
    assert record != cls(**{**fields, name: other})
    with pytest.raises(AttributeError):
        setattr(record, name, other)
    assert getattr(record, name) == fields[name]


def test_record_defaults():
    row = RepRow("series")
    assert (row.value, row.err, row.terms, row.note, row.compare) == (None, None, None, "", True)
    assert row.skipped and not row.exact
    assert CompareReport("q", (), (row,)).notes == ()


def test_power_series_needs_a_coefficient():
    with pytest.raises(ValueError, match="at least one coefficient"):
        PowerSeries(())


def test_records_are_tuples():
    result = QuadResult(0.5, 1e-12, 45)
    assert result == (0.5, 1e-12, 45)
    value, err, evaluations = result
    assert (result[0], err, evaluations) == (0.5, 1e-12, 45)
