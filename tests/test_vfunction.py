"""V(eps, d) prefactors in log space: reference values, monotonicity, tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspots import (
    InfeasibleParameterError,
    VKind,
    bound_value,
    finite_b_bound,
    load_custom_table,
    log_v,
    optimize_bound,
)
from hotspots.vfunction import CustomTable


def test_vogt_at_eps_one_is_fourth_root_of_two():
    # the epsilon factor collapses at eps = 1, leaving 2^(1/4) for every d
    for d in (2, 7, 100, 10**6):
        assert log_v(VKind.VOGT, 1.0, d) == pytest.approx(0.25 * math.log(2.0), rel=1e-14)


def test_vogt_quarter_epsilon_d2():
    expect = 0.25 * math.log(2.0) + math.log(1.5)
    assert log_v(VKind.VOGT, 0.25, 2) == pytest.approx(expect, rel=1e-13)
    assert log_v(VKind.VOGT, 0.25, 2) == pytest.approx(0.5787519, abs=5e-8)


def test_improved_at_eps_one_d4():
    # exact closed form: V = e * sqrt(12) / 8
    expect = math.log(math.e * math.sqrt(12.0) / 8.0)
    assert log_v(VKind.IMPROVED_VOGT, 1.0, 4) == pytest.approx(expect, rel=1e-12)


def test_vogt_explicit_formula():
    for eps in (0.03, 0.2, 0.77):
        for d in (2, 9, 150):
            direct = 0.25 * math.log(2.0) + 0.5 * d * math.log(
                0.5 * (1.0 + eps ** -0.5)
            )
            assert log_v(VKind.VOGT, eps, d) == pytest.approx(direct, rel=1e-12)


def test_log_v_is_nonnegative_on_grid():
    eps_grid = [k / 100.0 for k in range(1, 101)]
    for d in list(range(2, 21)) + [50, 100, 137, 200]:
        for eps in eps_grid:
            assert log_v(VKind.VOGT, eps, d) >= 0.0
            assert log_v(VKind.IMPROVED_VOGT, eps, d) >= 0.0


def test_improved_improves_on_vogt():
    eps_grid = [k / 100.0 for k in range(1, 101)]
    for d in (2, 3, 4, 10, 31, 100, 200):
        for eps in eps_grid:
            assert log_v(VKind.IMPROVED_VOGT, eps, d) <= log_v(VKind.VOGT, eps, d)


def test_nonincreasing_in_epsilon():
    eps_grid = [k / 100.0 for k in range(1, 101)]
    for kind in (VKind.VOGT, VKind.IMPROVED_VOGT):
        for d in (2, 17, 200):
            vals = [log_v(kind, eps, d) for eps in eps_grid]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-13


def test_vogt_huge_dimension():
    assert math.isfinite(log_v(VKind.VOGT, 0.5, 10**9))
    with pytest.raises(InfeasibleParameterError):
        log_v(VKind.VOGT, 0.5, 10**9 + 1)


def test_improved_dimension_cap():
    assert math.isfinite(log_v(VKind.IMPROVED_VOGT, 0.5, 200))
    with pytest.raises(InfeasibleParameterError):
        log_v(VKind.IMPROVED_VOGT, 0.5, 201)


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0001, math.nan])
def test_rejects_bad_epsilon(eps):
    with pytest.raises(InfeasibleParameterError):
        log_v(VKind.VOGT, eps, 4)


@pytest.mark.parametrize("d", [1, 0, 2.5, True])
def test_rejects_bad_dimension(d):
    with pytest.raises(InfeasibleParameterError):
        log_v(VKind.VOGT, 0.5, d)


@settings(max_examples=80, deadline=None)
@given(
    eps=st.floats(min_value=1e-6, max_value=1.0),
    d=st.integers(min_value=2, max_value=200),
)
def test_vogt_random_agrees_with_direct_form(eps, d):
    direct = 0.25 * math.log(2.0) + 0.5 * d * math.log1p(
        0.5 * math.expm1(-0.5 * math.log(eps))
    )
    assert log_v(VKind.VOGT, eps, d) == pytest.approx(direct, rel=1e-13, abs=1e-13)
    assert log_v(VKind.IMPROVED_VOGT, eps, d) <= log_v(VKind.VOGT, eps, d) + 1e-13


class TestCustomTable:
    ROWS = ((0.1, 2.0), (0.5, 1.0), (1.0, 0.25))

    def test_hits_nodes_exactly(self):
        for eps, lv in self.ROWS:
            assert log_v(VKind.CUSTOM, eps, 7, table=self.ROWS) == lv

    def test_linear_between_nodes(self):
        mid = log_v(VKind.CUSTOM, 0.3, 7, table=self.ROWS)
        assert mid == pytest.approx(1.5, rel=1e-12)

    def test_refuses_extrapolation(self):
        with pytest.raises(InfeasibleParameterError):
            log_v(VKind.CUSTOM, 0.05, 7, table=self.ROWS)

    def test_requires_table(self):
        with pytest.raises(InfeasibleParameterError):
            log_v(VKind.CUSTOM, 0.5, 7)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# epsilon, log V\n0.1, 2.0\n0.5, 1.0\n1.0, 0.25\n")
        table = load_custom_table(path)
        assert table == self.ROWS

    def test_csv_rejects_disorder_and_negatives(self, tmp_path):
        bad1 = tmp_path / "bad1.csv"
        bad1.write_text("0.5,1.0\n0.1,2.0\n")
        with pytest.raises(InfeasibleParameterError):
            load_custom_table(bad1)
        bad2 = tmp_path / "bad2.csv"
        bad2.write_text("0.1,-0.5\n0.5,1.0\n")
        with pytest.raises(InfeasibleParameterError):
            load_custom_table(bad2)
        bad3 = tmp_path / "bad3.csv"
        bad3.write_text("0.1,1.0\n")
        with pytest.raises(InfeasibleParameterError):
            load_custom_table(bad3)
        bad4 = tmp_path / "bad4.csv"
        bad4.write_text("0.1,nan\n0.5,1.0\n")
        with pytest.raises(InfeasibleParameterError):
            load_custom_table(bad4)

    def test_a_checked_table_is_an_immutable_tuple_of_floats(self):
        table = CustomTable([["0.1", " 2"], (0.5, 1), [1, 0.25]])
        assert table == self.ROWS and isinstance(table, tuple)
        assert all(type(cell) is float for row in table for cell in row)
        with pytest.raises(AttributeError):
            table.extra = 1

    @pytest.mark.parametrize("rows, message", [
        ([0.1, 0.5], "custom V table rows need 2 columns, got 0.1"),
        ([(0.1, None), (0.5, 1.0)], "custom V table row is not numeric: (0.1, None)"),
        ([], "custom V table needs at least 2 rows"),
    ], ids=["flat", "none", "empty"])
    def test_constructor_refusals(self, rows, message):
        with pytest.raises(InfeasibleParameterError) as info:
            CustomTable(rows)
        assert str(info.value) == message

    def test_a_checked_table_is_not_checked_again(self, monkeypatch):
        table = CustomTable(self.ROWS)

        def check(cls, rows):
            raise AssertionError("table checked again")

        monkeypatch.setattr(CustomTable, "__new__", check)
        assert log_v(VKind.CUSTOM, 0.3, 7, table=table) == pytest.approx(1.5, rel=1e-12)
        assert optimize_bound(7, 0.3, VKind.CUSTOM, vtable=table).bound > 1.0

    def test_loader_returns_a_checked_table(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("\n# comment\n0.1,2.0\n\n1.0,0.25\n")
        table = load_custom_table(str(path))
        assert type(table) is CustomTable and table == ((0.1, 2.0), (1.0, 0.25))


# Bad library tables, some of which no V file could be: each entry point
# refuses them with the loader's message, before it evaluates anything
_BAD_TABLES = {
    "out-of-order": (((0.1, 1.0), (0.9, 2.0), (0.5, 3.0)),
                     "table epsilons must strictly increase"),
    "tied-epsilon": (((0.1, 1.0), (0.1, 2.0), (0.9, 3.0)),
                     "table epsilons must strictly increase"),
    "one-row": (((0.3, 1.0),), "custom V table needs at least 2 rows"),
    "nan": (((0.1, math.nan), (0.9, 2.0)), "table log V must be >= 0, got nan"),
    "negative": (((0.1, -2.0), (0.9, -1.0)), "table log V must be >= 0, got -2.0"),
    "infinite-first": (((0.1, math.inf), (0.9, 2.0)), "table log V must be finite, got inf"),
    "infinite-last": (((0.1, 1.0), (0.9, math.inf)), "table log V must be finite, got inf"),
}
_ENTRY_POINTS = {
    "log_v": lambda table: log_v(VKind.CUSTOM, 0.3, 5, table=table),
    "bound_value": lambda table: bound_value(5, 0.3, VKind.CUSTOM, 0.3, 1.0, vtable=table),
    "optimize_bound": lambda table: optimize_bound(5, 0.3, VKind.CUSTOM, vtable=table),
    "finite_b_bound": lambda table: finite_b_bound(5, 0.3, VKind.CUSTOM, 0.3, 0.5, 1.0,
                                                   50.0, vtable=table),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(_BAD_TABLES))
def test_library_tables_are_checked(entry, bad):
    table, message = _BAD_TABLES[bad]
    with pytest.raises(InfeasibleParameterError) as info:
        _ENTRY_POINTS[entry](table)
    assert str(info.value) == message
