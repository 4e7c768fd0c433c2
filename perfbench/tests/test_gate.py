"""The correctness gate counts every changed cell and every lost row."""
import gate
import workloads as W

HEADER = ["d", "h", "t", "var", "max_p"]


def _scan_ref(discs):
    return {"header": HEADER,
            "rows": {str(d): [str(d), "3", "1000", "6041.57800785", "59"] for d in discs}}


def _table(rows):
    return "\n".join([",".join(HEADER)] + [",".join(r) for r in rows]) + "\n"


def _check_scan(rows, discs):
    v = gate.Verdict()
    gate.check_scan(0, gate.parse_output(_table(rows), ""), _scan_ref(discs), discs, "scan", v)
    return v


def test_cells_match_rules():
    assert gate.cells_match("17", "17")
    assert not gate.cells_match("18", "17")  # integers exactly
    assert gate.cells_match("1.0000000001", "1")  # floats within 1e-9 relative
    assert not gate.cells_match("1.00000001", "1")
    assert not gate.cells_match("none@cap", "17")
    assert not gate.cells_match("17", "none@cap")
    assert not gate.cells_match("bump", "indicator")


def test_intact_scan_passes():
    discs = [-3, -4, -7]
    v = _check_scan(list(_scan_ref(discs)["rows"].values()), discs)
    assert (v.attempted, v.failed) == (4, 0)


def test_dropped_scan_row_is_a_failure():
    discs = [-3, -4, -7]
    rows = list(_scan_ref(discs)["rows"].values())
    v = _check_scan([rows[0], rows[2]], discs)
    assert (v.attempted, v.failed) == (4, 1)
    assert "D=-4 missing" in v.problems[0]


def test_changed_scan_cell_is_a_failure():
    discs = [-3, -4, -7]
    rows = [list(r) for r in _scan_ref(discs)["rows"].values()]
    rows[1][3] = "6041.5781"  # 1.5e-8 relative
    v = _check_scan(rows, discs)
    assert (v.attempted, v.failed) == (4, 1)


def test_unexpected_and_duplicate_rows_are_failures():
    discs = [-3, -4]
    rows = list(_scan_ref([-3, -4, -7])["rows"].values())
    v = _check_scan(rows + [rows[0]], discs)
    assert v.failed == 2  # -3 twice, -7 outside the window


def test_changed_command_cell_and_summary_are_failures():
    want = {"header": ["class_index", "least_prime"], "rows": [["0", "23"], ["1", "2"]],
            "summary": {"h": "2", "max_least_prime": "23"}}
    good = gate.parse_output("class_index,least_prime\n0,23\n1,2\n",
                             "# h=2\n# max_least_prime=23\n")
    v = gate.Verdict()
    gate.check_command(0, good, want, "least-primes", v)
    assert (v.attempted, v.failed) == (1, 0)
    for table, err in [("class_index,least_prime\n0,29\n1,2\n", "# h=2\n# max_least_prime=23\n"),
                       ("class_index,least_prime\n0,23\n1,2\n", "# h=2\n# max_least_prime=none@cap\n"),
                       ("class_index,least_prime\n0,23\n", "# h=2\n# max_least_prime=23\n")]:
        v = gate.Verdict()
        gate.check_command(0, gate.parse_output(table, err), want, "least-primes", v)
        assert (v.attempted, v.failed) == (1, 1)
    v = gate.Verdict()
    gate.check_command(3, good, want, "least-primes", v)
    assert v.failed == 1  # nonzero exit


def test_fundamental_discriminant_count_is_independent():
    # 611 fundamental discriminants in [-2000, -3], the scan-2k window at seed 0
    assert len(W.fundamental_discs(-2000, -3)) == 611
    assert W.fundamental_discs(-12, -3) == [-3, -4, -7, -8, -11]


def test_seed_mapping_is_deterministic_and_marks_held_out():
    for name in W.WORKLOADS:
        assert W.build(name, 5) == W.build(name, 5)
        held = [s for s in range(40) if W.build(name, s).held_out]
        assert held, name
    assert W.build("primes-1e7", 0).key == "D-10000019"
    assert W.build("large-h", 0).key == "D-10289639"
    assert W.build("scan-2k", 0).scan_window == (-2000, -3)
