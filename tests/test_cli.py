"""Command line surface: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ellop import acceptance, dop853, operators
from ellop.cli import _parse_operator, build_parser, main
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator
from pinned import TIER1, lines_of, pins


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_indicial_known_roots(capsys):
    code, out, _ = run(capsys, "indicial", "--n", "2", "--b2", "-6")
    assert code == 0
    assert json.loads(out) == {"n": 2, "roots": ["-2", "3"]}


def test_indicial_rational_coefficient(capsys):
    code, out, _ = run(capsys, "indicial", "--n", "2", "--b2=-3/4")
    assert code == 0
    assert json.loads(out)["roots"] == ["-1/2", "3/2"]


@pytest.mark.parametrize("b2,roots", [
    ("-1000000000000000000000000", []),               # x^2 - x - 10^24: irrational
    ("-1000000000001000000000000", ["-1000000000000", "1000000000001"]),
    ("-1000000000000000000000000/9", []),
])
def test_indicial_with_a_24_digit_coefficient_finishes(capsys, within, b2, roots):
    # trial division up to sqrt|b2| ran for days at 10^24
    with within(1.0):
        code, out, _ = run(capsys, "indicial", "--n", "2", f"--b2={b2}")
    assert code == 0
    assert json.loads(out) == {"n": 2, "roots": roots}


def test_homog_check(capsys):
    code, out, _ = run(capsys, "homog-check", "--n", "3", "--indices=-1,1,3")
    assert code == 0
    assert json.loads(out)["integrable"] is True
    code, out, _ = run(capsys, "homog-check", "--n", "3", "--indices", "0,1,3")
    assert json.loads(out)["integrable"] is False


def test_homog_check_with_too_few_indices(capsys):
    assert run(capsys, "homog-check", "--n", "3", "--indices=-1,1") == (
        0, '{"integrable": false, "reason": "wrong number of indices"}\n', "")


@pytest.mark.parametrize("n,indices", [("0", ""), ("1", "5"), ("-2", "1,2")])
def test_homog_check_rejects_an_order_below_2(capsys, n, indices):
    # no operator of order below 2 exists: indicial exits 2 with this message
    assert run(capsys, "homog-check", "--n", n, f"--indices={indices}") == (
        2, "", "error: order must be at least 2\n")


def test_constraints_known_condition(capsys):
    code, out, _ = run(capsys, "constraints", "--q", "2", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert [c["poly"] for c in doc["conditions"]] == ["3*c + e^2"]


def test_locus_csv(capsys):
    code, out, _ = run(capsys, "locus", "--r", "2", "--q-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("r,q,branch,classification")
    assert len(lines) == 3
    assert all(line.split(",")[3] == "one-parameter-family"
               for line in lines[1:])


@pytest.mark.parametrize("r,q_max", [("5", "2"), ("2", "-100"), ("4", "3")])
def test_locus_below_the_first_q_prints_the_header_only(capsys, r, q_max):
    # the first cell has q = r: a --q-max below r asks for no q, as
    # jtable --count 0 does, where it printed the cells from q = r on
    assert run(capsys, "locus", "--r", r, "--q-max", q_max) == (
        0, "r,q,branch,classification,c_over_e2,g2_relation,g3_relation,j\r\n", "")


def test_locus_rejects_invalid_r(capsys):
    # a usage error, printed as every other one is
    assert run(capsys, "locus", "--r", "3") == (
        2, "", "error: r=3 does not occur (must be positive, not divisible by 3)\n")


@pytest.mark.parametrize("argv,message", [
    (("locus", "--r", "2", "--q-max", "1000000"),
     "--q-max 1000000 asks for 333333 values of q; at most 1000 are allowed"),
    (("locus", "--r", "22", "--q-max", "3022"),
     "--q-max 3022 asks for 1001 values of q; at most 1000 are allowed"),
    (("jtable", "--r", "2", "--count", "100000"),
     "--count 100000 asks for 100000 values of q; at most 1000 are allowed"),
    (("jtable", "--r", "1", "--count", "1001"),
     "--count 1001 asks for 1001 values of q; at most 1000 are allowed"),
])
def test_a_scan_past_the_bound_exits_2_before_it_starts(capsys, within, argv, message):
    with within(1):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_the_scan_bound_is_inclusive_and_in_the_help(capsys, monkeypatch):
    # the largest scans allowed run, here with a stub cell, in place of
    # 1000 exact solves
    from ellop import cli
    from ellop.locus3 import LocusBranch, ScanReport

    monkeypatch.setattr(cli, "scan_grid", lambda rs, q_offset, curve: ScanReport(curve))
    monkeypatch.setattr(cli, "solved_branch", lambda q, r: LocusBranch(
        q, r, {}, None, [], [], [], "one-parameter-family"))
    assert run(capsys, "locus", "--r", "22", "--q-max", "3019")[0] == 0
    code, out, _ = run(capsys, "jtable", "--r", "1", "--count", "1000")
    assert (code, len(out.splitlines())) == (0, 1001)
    for command, option in (("locus", "--q-max"), ("jtable", "--count")):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "at most 1000 values of q" in text[text.index(option + " "):], command


def test_reconstruct(capsys):
    code, out, _ = run(capsys, "reconstruct", "--r", "2", "--quantity", "c/e2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "(-3)/(q^2 + 2*q + 1)"


@pytest.mark.parametrize("r,quantity", [
    ("4", "g2/e4"), ("7", "g2/e4"), ("5", "g2/c2"), ("5", "c2/g2"),
])
def test_reconstruct_of_an_unbound_quantity_exits_2(capsys, r, quantity):
    # the branch leaves a variable besides the base one free, so the ratio
    # has no value: a usage error, not a KeyError traceback
    code, out, err = run(capsys, "reconstruct", "--r", r, "--quantity", quantity)
    assert code == 2
    assert out == ""
    assert err == f"error: {quantity} is not determined on this branch\n"


def test_reconstruction_error_exits_2(capsys, monkeypatch):
    from ellop import cli
    from ellop.interp import ReconstructionError

    def fail(r, quantity):
        raise ReconstructionError("no rational function within the degree bounds")

    monkeypatch.setattr(cli, "reconstruct_in_q", fail)
    code, out, err = run(capsys, "reconstruct", "--r", "8", "--quantity", "j")
    assert code == 2
    assert out == ""
    assert err == "error: no rational function within the degree bounds\n"


def test_a_failed_certificate_exits_1(capsys, monkeypatch, uncached_constraints):
    from ellop import locus3
    from ellop.monodromy import Condition
    from ellop.poly import MultiPoly

    def conditions(poly):
        return lambda L, m, top: ((Condition(poly, 0), poly.primitive_with_weights()[1]),)

    # a weight-4 condition for gap r = 2 fails constraints_for's weight check
    monkeypatch.setattr(locus3, "algebraic_conditions", conditions(MultiPoly.var("g2")))
    code, out, err = run(capsys, "constraints", "--q", "2", "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: condition weight inconsistent with gap r\n"
    # g3 does not vanish at the cyclic point c = e = g2 = 0, and its weight,
    # 6, fails the same check
    monkeypatch.setattr(locus3, "algebraic_conditions", conditions(MultiPoly.var("g3")))
    code, out, err = run(capsys, "locus", "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: condition weight inconsistent with gap r\n"


def test_no_solved_branch_exits_2(capsys, monkeypatch):
    from ellop import locus3

    monkeypatch.setattr(locus3, "triangular_solve", lambda cs: [])
    code, out, err = run(capsys, "reconstruct", "--r", "2", "--quantity", "c/e2")
    assert (code, out) == (2, "")
    assert err == "error: expected one solved branch for (2,2), got 0\n"


def test_jtable(capsys):
    code, out, _ = run(capsys, "jtable", "--r", "1", "--count", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,j"
    assert len(lines) == 3


# the lines of tests/cli-pins.txt keep the ids of the digest tables they
# came from: the args of locus and jtable, and OPERATOR-ORDER of commute
@pytest.mark.parametrize("pin", lines_of("locus", "jtable"), ids=lambda pin: " ".join(pin.args))
def test_locus_output_is_pinned(pin):
    assert pins.check(pin) == []


def test_the_nodal_locus_at_r_13_is_decided(capsys):
    # each cell holds the cyclic point c = e = w = 0, and the branch that
    # solves the c^2 relation's linear condition for c, which holds no point
    code, out, err = run(capsys, "locus", "--r", "13", "--curve", "nodal")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[1], row[3]) for row in rows] == [
        (q, cls) for q in ("13", "16", "19", "22") for cls in ("cyclic-point", "inconsistent")]


def test_commute_found_and_not_found(capsys):
    code, out, _ = run(capsys, "commute", "--operator", "second:a=-2",
                       "--order", "3")
    assert code == 0
    assert json.loads(out)["found"] is True
    code, out, _ = run(capsys, "commute", "--operator", "second:a=-5/2",
                       "--order", "3")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_an_operator_spec_with_a_trailing_comma_is_the_same_operator(capsys):
    # an empty chunk between commas is skipped
    assert run(capsys, "commute", "--operator", "second:a=-2,", "--order", "3") == run(
        capsys, "commute", "--operator", "second:a=-2", "--order", "3")


@pytest.mark.parametrize("argv", [
    ("monodromy", "--operator", "third:q=2,r=2,c=-3,e=3,g2=5", "--lambda", "0.7"),
    ("commute", "--operator", "second:a=-2,b=7", "--order", "3"),
    ("commute", "--operator", "cyclic:n=4,indices=-1|1|2|4,curve=lemniscatic,zz=1",
     "--order", "3"),
], ids=["third-g2", "second-b", "cyclic-zz"])
def test_an_operator_spec_with_a_key_its_kind_does_not_read_is_a_usage_error(capsys, argv):
    # g2 and b would be dropped silently, and the operator built without them
    spec = argv[2]
    key = spec.rpartition(",")[2].partition("=")[0]
    assert run(capsys, *argv) == (
        2, "", f"error: bad operator spec {spec!r}: unknown key {key!r}\n")


@pytest.mark.parametrize("pin", lines_of("commute"),
                         ids=lambda pin: f"{pin.args[2]}-{pin.args[4]}")
def test_commute_output_is_pinned(pin):
    assert pins.check(pin) == []


def test_a_scaled_partner_is_divided_by_what_its_coefficients_share():
    # (2, 5) at c = e = 0 has no monic partner of order 7: the solve scales
    # it, and every coefficient was a multiple of 14572743731591310213120
    # g2^5 g3.  Divided by that, no integer > 1 and no monomial in g2, g3
    # divides them all; the factor 5 g2^3 - 32 g3^2 stays, since poly has
    # no multivariate gcd.  `commute` prints the text of each coefficient
    M = operators.find_commuting(_parse_operator("third:q=2,r=5,c=0,e=0")[0], 7)
    assert M[7].text() == "-15*g2^4 + 96*g2*g3^2"
    coeffs = [c for element in M.values() for _, _, c in element.parts()]
    assert math.gcd(*(n for c in coeffs for n in c.terms.values())) == 1
    assert all(any(min(c.coefficients_in(v)) == 0 for c in coeffs) for v in ("g2", "g3"))


def test_commute_solves_one_column_per_term_within_the_pole_weight(monkeypatch):
    # L has pole weight 1, so D^(7-i) gets the monomials P^a (P')^b of pole
    # order 2a + 3b <= i: 1 + 2 + ... + 7 = 28 columns.  The earlier bound,
    # pole order <= n + m + i, built 98
    widths = []
    real = operators.solve_linear_over_field

    def solve(matrix, rhs):
        widths.append(len(matrix[0]))
        return real(matrix, rhs)

    monkeypatch.setattr(operators, "solve_linear_over_field", solve)
    args = ["commute", "--operator", "third:q=2,r=2,c=-3,e=3", "--order", "7"]
    (pin,) = [pin for pin in TIER1 if pin.args == args]
    assert pins.check(pin) == []
    assert widths == [28]


@pytest.mark.parametrize("operator,order", sorted(
    {(pin.args[2], int(pin.args[4])) for pin in lines_of("commute") if int(pin.args[4]) <= 5}
) + [("a2=P^2", 3)])
def test_a_wider_basis_finds_the_same_partner(monkeypatch, operator, order):
    # every column past the pole weight's bound is 0 in every solution, so
    # the basis of the earlier bound n + m + i, or a wider one, changes
    # nothing; a_2 = P^2 is not Fuchsian and has pole weight 2
    L = (GlobalEllipticOperator(2, {2: EllipticElement([0, 0, 1])}) if operator == "a2=P^2"
         else _parse_operator(operator)[0])

    def partner():
        M = operators.find_commuting(L, order)
        return None if M is None else {p: c.text() for p, c in sorted(M.items())}

    want = partner()
    real = operators._elliptic_basis
    monkeypatch.setattr(operators, "_elliptic_basis", lambda pole: real(pole + L.n + order))
    assert partner() == want


@pytest.mark.parametrize("order,message", [
    ("-1", "order -1 of the partner must be at least 1"),
    ("0", "order 0 not coprime to 2"),
])
def test_commute_rejects_an_order_below_one(capsys, order, message):
    code, out, err = run(capsys, "commute", "--operator", "second:a=-2", "--order", order)
    assert code == 2
    assert out == ""
    assert message in err


def test_commute_rejects_a_cyclic_index_sum(capsys):
    code, out, err = run(capsys, "commute", "--operator", "cyclic:n=3,indices=0|1|5",
                         "--order", "2")
    assert (code, out) == (2, "")
    assert err == ("error: bad operator spec 'cyclic:n=3,indices=0|1|5': index sum "
                   "incompatible with a vanishing d^(n-1) term\n")


def test_commute_rejects_numeric_operator(capsys):
    assert run(capsys, "commute", "--operator", "second:a=-2.5", "--order", "3") == (
        2, "", "error: commute requires an exact operator (no numeric parameters)\n")


@pytest.mark.parametrize("argv", [
    ("commute", "--order", "3"),
    ("monodromy", "--lambda", "1"),
], ids=["commute", "monodromy"])
def test_a_cyclic_operator_of_order_below_2_is_a_usage_error(capsys, argv):
    # no operator of order below 2 exists, as indicial and homog-check say
    assert run(capsys, argv[0], "--operator", "cyclic:n=1,indices=0", *argv[1:]) == (
        2, "", "error: bad operator spec 'cyclic:n=1,indices=0': order must be at least 2\n")


def test_cm2_residuals(capsys):
    code, out, _ = run(capsys, "cm2-residuals",
                       "--points", "0.3+0.2j;0.8+0.2j", "--mults", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs"] < 1e-10


def test_cm2_residuals_of_a_point_of_multiplicity_0(capsys):
    # points[0] has no residual, and weighs 0 in the residuals of points[1]
    assert run(capsys, "cm2-residuals", "--points", "0.13+0.21j;0.41-0.07j", "--mults",
               "0,1") == (0, '{"residuals": [[0.0, 0.0]], "max_abs": 0.0}\n', "")


@pytest.mark.parametrize("mults,index", [("4,1", 0), ("0,4", 1)])
def test_cm2_residuals_names_a_multiplicity_above_3(capsys, mults, index):
    code, out, err = run(capsys, "cm2-residuals",
                         "--points", "0.13+0.21j;0.41-0.07j", "--mults", mults)
    assert (code, out) == (2, "")
    assert err == (f"error: points[{index}] has multiplicity 4; the residuals read wp "
                   "only up to wp^(5), so at most 3\n")


def many_body_id(pin):
    """cm2-1,1-1j for cm2-residuals --mults 1,1 --tau 1j: the command's first
    word, its --mults or --solve, and its --tau (None if it has none), which
    named each line in the digest table it came from."""
    a = build_parser().parse_args(pin.args)
    name = [a.command.split("-")[0], getattr(a, "mults", ""), "solve" * getattr(a, "solve", 0)]
    tau = pin.args[pin.args.index("--tau") + 1] if "--tau" in pin.args else None
    return "-".join([part for part in name if part] + [str(tau)])


@pytest.mark.parametrize("pin", lines_of("cm2-residuals", "cm3-crit", "cryst3-crit",
                                         "inozemtsev-grad"), ids=many_body_id)
def test_many_body_output_is_pinned(pin):
    assert pins.check(pin) == []


def test_cryst3_reports_the_first_point_that_fails(capsys):
    # points[1] = eps points[0], and points[2] is the fixed point eta_1: the
    # shared orbit of points[1] is met first, as points are checked in turn
    code, out, err = run(capsys, "cryst3-crit",
                         "--points", "0.23+0.14j;-0.23624355652982137+0.12918584287042092j;"
                         "0.5773502691896258j", "--momenta", "0;0;0",
                         "--alphas", "1;1;1", "--betas", "0;0;0")
    assert (code, out, err) == (2, "", "error: points[1] and points[0] share a Z3 orbit\n")


def test_cm3_solve(capsys):
    code, out, _ = run(capsys, "cm3-crit",
                       "--points", "0.21+0.11j;0.62-0.07j",
                       "--momenta", "0.4;-0.4", "--c", "1.0", "--solve")
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True
    assert doc["residual_norm"] < 1e-10


def test_cm3_solve_without_points_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cm3-crit", "--points", "", "--momenta", "",
                         "--c", "1", "--solve")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,key", [
    (("cm2-residuals", "--points", "", "--mults", ""), "max_abs"),
    (("cm3-crit", "--points", "", "--momenta", "", "--c", "1"), "max_abs"),
    (("inozemtsev-grad", "--points", "", "--ms", "1;2;3;4"), "max_abs"),
    (("cryst3-crit", "--points", "", "--momenta", "",
      "--alphas", "1;2;3", "--betas", "1;2;3"), "agreement"),
], ids=["cm2-residuals", "cm3-crit", "inozemtsev-grad", "cryst3-crit"])
def test_many_body_commands_agree_on_an_empty_point_list(capsys, argv, key):
    # no particles: no residuals, and the largest of none is 0.0
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == 0.0


def test_monodromy_json(capsys):
    code, out, _ = run(capsys, "monodromy", "--operator", "second:a=-2",
                       "--lambda", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["deviation"] < 1e-8
    assert abs(complex(*doc["determinant"]) - 1) < 1e-8


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "monodromy", "--operator", "second:a=-2",
                "--lambda", "2.0")
    second = run(capsys, "monodromy", "--operator", "second:a=-2",
                 "--lambda", "2.0")
    assert first == second
    a = run(capsys, "locus", "--r", "5")
    b = run(capsys, "locus", "--r", "5")
    assert a == b


def test_indicial_rejects_an_order_without_coefficient_options(capsys):
    # only --b2 .. --b6 exist; a higher order must not read b7.. as zero
    for n in ("7", "8"):
        code, out, err = run(capsys, "indicial", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    assert run(capsys, "indicial", "--n", "6", "--b2", "1")[0] == 0
    assert run(capsys, "indicial", "--n", "1") == (
        2, "", "error: order must be at least 2\n")


def test_inozemtsev_ms_takes_the_documented_separator(capsys):
    code, out, _ = run(capsys, "inozemtsev-grad", "--help")
    assert code == 0
    assert "four semicolon-separated values" in " ".join(out.split())
    code, out, _ = run(capsys, "inozemtsev-grad", "--points",
                       "0.21+0.33j;0.57-0.12j", "--ms", "1;0.5;0.25;0.1")
    assert code == 0
    assert len(json.loads(out)["gradient"]) == 2


@pytest.mark.parametrize("radius", ["0", "-0.1", "nan", "inf"])
def test_monodromy_rejects_a_degenerate_loop(capsys, radius):
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", f"--radius={radius}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "radius" in err


@pytest.mark.parametrize("radius", ["1", "1.0", "2.5", "1e300"])
def test_monodromy_rejects_a_loop_around_more_than_one_pole(capsys, radius):
    # the radius is a fraction of the shortest period: from 1 on the loop
    # meets or encloses other lattice points, and its transport is not the
    # local monodromy at the pole
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", f"--radius={radius}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "radius" in err and "below 1" in err


def test_monodromy_accepts_a_radius_just_below_one(capsys):
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", "--radius", "0.9")
    assert (code, err) == (0, "")
    assert _finite_json(out)["path"]["radius"] == pytest.approx(0.9)


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-14"])
def test_monodromy_rejects_an_invalid_tolerance(capsys, tol):
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "tolerance" in err


def _finite_json(text):
    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON")

    return json.loads(text, parse_constant=reject)


def test_monodromy_on_a_thin_lattice(capsys):
    # the loop's coefficients come from the lattice's wp, which stays in
    # range for every shortest period
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", "--tau", "1e-5j")
    assert (code, err) == (0, "")
    doc = _finite_json(out)
    assert doc["path"]["radius"] == pytest.approx(0.2e-5)


@pytest.mark.parametrize("tau", ["1e-5j", "1e-3j", "0.2j"])
def test_integrable_lame_reads_trivial_on_a_thin_lattice(capsys, tau):
    # the entry of row i, column j of the z-frame matrix carries a factor
    # mu^(j-i); in the frame of w = z/mu the deviation does not grow as the
    # lattice thins (1.29e-7 at 1e-5i in the z frame)
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", "--tau", tau)
    assert (code, err) == (0, "")
    assert json.loads(out)["deviation"] < 1e-10


def test_monodromy_on_a_lattice_too_thin_for_float_invariants_exits_2(capsys):
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", "--tau", "1e-100j")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the lattice") and "too thin" in err


def test_monodromy_loop_too_close_to_the_pole_exits_2(capsys):
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1", "--radius", "1e-9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: z is within 1e-8 of a lattice point")


@pytest.mark.filterwarnings("error")     # a warning would print a second line
@pytest.mark.parametrize("argv", [
    ("--operator", "second:a=-2", "--lambda", "1e200"),
    ("--operator", "third:q=2,r=2,c=1e200", "--lambda", "1"),
])
def test_a_failed_loop_integration_exits_2(capsys, argv):
    # the step size collapses below the float spacing
    code, out, err = run(capsys, "monodromy", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: loop integration failed")
    assert err.count("\n") == 1


def test_a_loop_integration_past_the_step_bound_exits_2(capsys, monkeypatch):
    # at lambda = 1e30 the loop creeps on at steps near 1e-15; the full
    # bound takes seconds to reach, so a small one stands in for it
    monkeypatch.setattr(dop853, "MAX_STEPS", 50)
    code, out, err = run(capsys, "monodromy", "--operator", "second:a=-2",
                         "--lambda", "1e30")
    assert (code, out) == (2, "")
    assert err.startswith("error: loop integration failed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("indicial", "--n", "3", "--b2=1/0"),
    ("monodromy", "--operator", "third:q=2,r=2,c=1/0", "--lambda", "1"),
    ("monodromy", "--operator", "second:a=1/0", "--lambda", "1"),
])
def test_a_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "'1/0'" in err
    assert "Traceback" not in err and "Fraction" not in err


@pytest.mark.parametrize("argv", [
    ("inozemtsev-grad", "--points", "0.1+0.2j", "--ms", "1;2;3;nan"),
    ("inozemtsev-grad", "--points", "0.1+0.2j;infj", "--ms", "1;2;3;4"),
    ("monodromy", "--operator", "second:a=-2", "--lambda", "nan"),
    ("monodromy", "--operator", "second:a=-2", "--lambda", "inf"),
    ("monodromy", "--operator", "third:q=2,r=2,c=nan", "--lambda", "1"),
    ("monodromy", "--operator", "second:a=-inf", "--lambda", "1"),
    ("cm3-crit", "--points", "0.1;0.3", "--momenta", "1;2", "--c", "nan"),
    ("monodromy", "--operator", "second:a=-2", "--lambda", "1",
     "--tau", "nan"),
])
def test_a_non_finite_complex_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not a finite complex number" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "indicial")[0] == 2                       # missing --n
    assert run(capsys, "constraints", "--q", "3", "--r", "3")[0] == 2
    assert run(capsys, "monodromy", "--operator", "junk:x=1",
               "--lambda", "1")[0] == 2


def test_verify_paper_passes(capsys, monkeypatch, verify_results):
    # the criteria themselves are asserted in test_acceptance; this checks
    # how the CLI reports the same run_all(0) result
    seeds = []

    def run_all(seed=0):
        seeds.append(seed)
        return verify_results

    monkeypatch.setattr(acceptance, "run_all", run_all)
    code, out, _ = run(capsys, "verify-paper")
    assert seeds == [0]
    assert code == 0
    assert out.splitlines() == [
        f"PASS  {name}: {detail}" for name, _, detail in verify_results
    ] + ["11/11 criteria passed"]
    assert all(ok for _, ok, _ in verify_results)


def test_verify_paper_exits_1_on_a_failed_criterion(capsys, monkeypatch):
    results = [("first", True, "fine"), ("second", False, "off by 1e-3")]
    monkeypatch.setattr(acceptance, "run_all", lambda seed=0: results)
    code, out, _ = run(capsys, "--seed", "7", "verify-paper")
    assert code == 1
    assert out.splitlines() == [
        "PASS  first: fine", "FAIL  second: off by 1e-3", "1/2 criteria passed",
    ]


def _src_env():
    """The environment of a child interpreter that imports ellop from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_the_runtime_loads_no_test_only_reference():
    # scipy and mpmath are test-only references: the runtime integrates its
    # loops with ellop.dop853 and sums g2, g3 in stdlib decimal, so no
    # process start pays for importing either.  numpy loads at the first
    # loop or Newton solve, not at import
    code = ("import sys, ellop, ellop.cli, ellop.acceptance, ellop.cm, ellop.oracle; "
            "ellop.lattice.make_lattice(1j); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_the_exact_commands_run_with_numpy_blocked():
    # importing numpy raises in the child, so any use of it would change an
    # exit code or a stdout; the first line of each exact subcommand runs there
    first = {}
    for pin in TIER1:
        first.setdefault(pins.subcommand(pin.args), pin)
    exact = [first[command] for command in sorted(pins.EXACT)]
    code = textwrap.dedent("""
        import contextlib, hashlib, io, json, sys
        sys.modules["numpy"] = None
        from ellop.cli import main
        out = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out.append([main(argv), hashlib.sha256(buf.getvalue().encode()).hexdigest()])
        print(json.dumps(out))
    """)
    child = subprocess.run([sys.executable, "-c", code, json.dumps([p.args for p in exact])],
                           env=_src_env(), check=True, capture_output=True, text=True)
    assert json.loads(child.stdout) == [[p.code, p.sha] for p in exact]
