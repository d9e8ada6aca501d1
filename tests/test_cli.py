"""Command line surface: output formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ellop import acceptance, dop853, operators
from ellop.cli import _parse_operator, main
from ellop.elliptic import EllipticElement
from ellop.operators import GlobalEllipticOperator


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
    from ellop.monodromy import Condition, ConstraintSet
    from ellop.poly import MultiPoly

    # a weight-4 condition for gap r = 2 fails constraints_for's weight check
    g2 = MultiPoly.var("g2")
    monkeypatch.setattr(locus3, "algebraic_conditions", lambda L, m, top:
                        ((Condition(g2, 0), g2.primitive_with_weights()[1]),))
    code, out, err = run(capsys, "constraints", "--q", "2", "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: condition weight inconsistent with gap r\n"
    # a condition that the cyclic point c = e = g2 = 0 does not satisfy
    monkeypatch.setattr(locus3, "constraints_for", lambda q, r: ConstraintSet(
        3, (Condition(MultiPoly.var("g3"), 0),), q=q, r=r))
    code, out, err = run(capsys, "locus", "--r", "2", "--q-max", "2")
    assert (code, out) == (1, "")
    assert err == "error: cyclic point fails the constraints\n"


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


# SHA-256 of the stdout of `ellop ARGV`: exotic-j rows whose j is a
# RatFunc, unsolved nodal rows with a `c^2 = ...` square relation, cusps,
# and the j table
LOCUS_DIGESTS = {
    ("locus", "--r", "8"): "c3c43a267136efeee17552a80f704a9aba1c7120e9a894d2e001b84e5d189407",
    ("locus", "--r", "10"): "eba80892b562ee5667e411bb1aaa42116f71bc1fa866f68b99eec01fd172f05f",
    ("locus", "--r", "13"): "f7a983b7781a2f570c2a1a1679f755fe48f666007ea90d45b520516a7ea9a215",
    ("locus", "--r", "5", "--curve", "nodal"):
        "9c4ff5c505d09f133e0f820ce49d74139f8b8e04d9cb23ba1aa59df1ec93e41a",
    ("locus", "--r", "22", "--curve", "nodal"):
        "c28ccb18cdf8ac933c38eb6c6ffaf264f95c7becb5bf49136a97ff8ee35bed68",
    ("locus", "--r", "4", "--curve", "cuspidal"):
        "b75eeea12099c10a0ce1c8f1239347518c1362e265856bb327c694a4f8478dc3",
    ("jtable", "--r", "10"): "2d73b4d2828c2b7be71f17997b8b4dfefe3503de5d600738f32671c0245b1ccb",
}


@pytest.mark.parametrize("argv", list(LOCUS_DIGESTS), ids=" ".join)
def test_locus_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LOCUS_DIGESTS[argv]


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


# SHA-256 of the stdout of `ellop commute --operator OP --order M`
COMMUTE_DIGESTS = {
    ("second:a=-2", 3): "5911188e0404994b3c0e82f1d85a53f3e389b64b3f616edb2bf5875cf1f8b26a",
    ("second:a=-5/2", 3): "22fc34cee0515349529fd04aed6ba34c4ccb6d37a06c14cdd7d69bbfc40d3d5a",
    ("second:a=-6", 5): "f863c07d34e003ea1604f6f81a5204969f1d539b2cb3b49740f23c904689a16a",
    ("second:a=-2", 5): "06b4f5288cb5b4d09c4795dbfe0aac1c19d049913d60f2f039e35f58b33a164d",
    ("second:a=0", 3): "a68133fbfc6b1d563faa543840c3110a90fa71754622abfcc728464ac661fe32",
    ("third:q=2,r=2,c=0,e=0", 2): "7f25a10a508090d7d0974b5c7b4175338575c388f32b735a1a20634afe6464eb",
    ("cyclic:n=3,indices=-1|1|3,curve=generic", 2):
        "7f25a10a508090d7d0974b5c7b4175338575c388f32b735a1a20634afe6464eb",
    # a third-order partner at a locus point with c, e != 0
    ("third:q=2,r=2,c=-3,e=3", 2): "8dd7db2fea64d9d4c11713717ad4935ca320127d75694749df2a823df08201b5",
    # a third-order negative at order 4
    ("third:q=2,r=2,c=1,e=1", 4): "22fc34cee0515349529fd04aed6ba34c4ccb6d37a06c14cdd7d69bbfc40d3d5a",
    # partners of orders 4 and 3 for cyclic operators
    ("cyclic:n=3,indices=-1|1|3,curve=generic", 4):
        "6de6f4fb4102da1ca2c18e0350e78bb3774397b028357ef768db3eb309319a3b",
    ("cyclic:n=4,indices=-1|1|2|4,curve=lemniscatic", 3):
        "5911188e0404994b3c0e82f1d85a53f3e389b64b3f616edb2bf5875cf1f8b26a",
    # a third-order partner at order 5 whose solve leaves 4 unknowns free
    ("third:q=2,r=2,c=-3,e=3", 5): "db2ec36398c8dd410a06faa77fdf40ffb645dbf410993f6274df328f68a1fd1f",
    # off the locus at order 5: the solve meets 7 nonzero residual rows
    ("third:q=4,r=4,c=6,e=0", 5): "22fc34cee0515349529fd04aed6ba34c4ccb6d37a06c14cdd7d69bbfc40d3d5a",
    # order 7, a cyclic operator's partner among them
    ("second:a=-6", 7): "638e2dc4122e027ee4e55dfa6a4957f80a643d593dddcebd62105d65adad3c44",
    ("second:a=-12", 7): "9c2a4bd408131e3255bca35d335d1ad124c79f1bb4eb66f175e4b699fcc4c04e",
    ("third:q=2,r=2,c=-3,e=3", 7): "e92fa01d4c258ed7d2d88938276ddcd94118a059618cccf96c8e6ef8aba50ca5",
    ("third:q=4,r=4,c=6,e=0", 7): "22fc34cee0515349529fd04aed6ba34c4ccb6d37a06c14cdd7d69bbfc40d3d5a",
    ("cyclic:n=3,indices=-1|1|3,curve=generic", 7):
        "8545be21e2527542d5a422580f0503c9ccb094841a7aa354a6c5ea516dddc158",
}


@pytest.mark.parametrize("operator,order", sorted(COMMUTE_DIGESTS))
def test_commute_output_is_pinned(capsys, operator, order):
    code, out, _ = run(capsys, "commute", "--operator", operator, "--order", str(order))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMUTE_DIGESTS[operator, order]


def test_commute_solves_one_column_per_term_within_the_pole_weight(capsys, monkeypatch):
    # L has pole weight 1, so D^(7-i) gets the monomials P^a (P')^b of pole
    # order 2a + 3b <= i: 1 + 2 + ... + 7 = 28 columns.  The earlier bound,
    # pole order <= n + m + i, built 98
    widths = []
    real = operators.solve_linear_over_field

    def solve(matrix, rhs):
        widths.append(len(matrix[0]))
        return real(matrix, rhs)

    monkeypatch.setattr(operators, "solve_linear_over_field", solve)
    key = ("third:q=2,r=2,c=-3,e=3", 7)
    code, out, _ = run(capsys, "commute", "--operator", key[0], "--order", str(key[1]))
    assert widths == [28]
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMUTE_DIGESTS[key]


@pytest.mark.parametrize("operator,order",
                         sorted(k for k in COMMUTE_DIGESTS if k[1] <= 5) + [("a2=P^2", 3)])
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


# the many-body commands whose stdout MANY_BODY_DIGESTS pins, by name; each
# runs with --tau on the three lattices of MANY_BODY_DIGESTS, except
# cryst3-crit, which lives on the hexagonal cell
MANY_BODY_COMMANDS = {
    "cm2-1,1": ("cm2-residuals", "--points", "0.13+0.21j;0.41-0.07j", "--mults", "1,1"),
    # multiplicity 3 reads wp^(5)
    "cm2-3,1,2": ("cm2-residuals", "--points", "0.13+0.21j;0.41-0.07j;-0.22+0.33j",
                  "--mults", "3,1,2"),
    "cm3": ("cm3-crit", "--points", "0.21+0.11j;0.62-0.07j", "--momenta", "0.4;-0.4",
            "--c", "1.0"),
    "cm3-solve": ("cm3-crit", "--points", "0.21+0.11j;0.62-0.07j", "--momenta", "0.4;-0.4",
                  "--c", "1.0", "--solve"),
    "inozemtsev": ("inozemtsev-grad", "--points", "0.21+0.33j;0.57-0.12j",
                   "--ms", "1;0.5;0.25;0.1"),
    "monodromy": ("monodromy", "--operator", "second:a=-2", "--lambda", "1.5"),
    "cryst3": ("cryst3-crit", "--points", "0.23+0.14j;-0.11+0.39j", "--momenta", "0.5;0.2-0.1j",
               "--alphas", "1.2;0.7;1.1", "--betas", "0.3;-0.2;0.1"),
}

# SHA-256 of the stdout of MANY_BODY_COMMANDS[name] --tau TAU (no --tau: None)
MANY_BODY_DIGESTS = {
    ("cm2-1,1", "1j"):
        "146b03d937c2a037318865c0f52eb44c61d22ade3b42688159f879fb887f417c",
    ("cm2-1,1", "0.3+1.1j"):
        "7d81d1d367e02dc67c95cb7ae1ffe96cf56c3e076e5cc6cc733c1474711f7d6b",
    ("cm2-1,1", "0.2j"):
        "2980a1e0062ff02cbd1dd1649409c6b258eff62f5b5f54d52b0061b6037ea625",
    ("cm2-3,1,2", "1j"):
        "dec09a1c09b3a17f1999fd473dbfd9376732a7745791ef68ea27b1270df60c6d",
    ("cm2-3,1,2", "0.3+1.1j"):
        "7cb84a82cd042522f15840fe23f28717e70ee70ba01a59715c9bf9de024e1608",
    ("cm2-3,1,2", "0.2j"):
        "4f01ec9d344c34211f6b66e038a3a0243dee60724f25bea38ac5ba636999fc75",
    ("cm3", "1j"):
        "19f9aab4bb126437ac7df67176d61395e886fb9edff883b380bb528008a5e01f",
    ("cm3", "0.3+1.1j"):
        "5f6c217b997ea9053b3fe30cf48c9c6a8fe3b840bda1ac75a9cf2ceb3945dfff",
    ("cm3", "0.2j"):
        "1b4be35c2816a4f94a6b061942a6b6885316c760cddfc8d2f3b67a70694f007f",
    ("cm3-solve", "1j"):
        "fc559872584689e4aadb69ba75e986554f732302bec701f481876e288c6f0dc4",
    ("cm3-solve", "0.3+1.1j"):
        "373d5eba1b94ae4384ea99338ebabbba8b5b3cac29cc0d9d2dbfbc7549aa0e71",
    ("cm3-solve", "0.2j"):
        "48d0f14fa788b3372bb7d357c1f052ce52d1f36b2dc71eae15784d7c346774cd",
    ("inozemtsev", "1j"):
        "1c965494c103dcca368e689e6bf77cb5990bf4e4a8bc7d207051e49da499989c",
    ("inozemtsev", "0.3+1.1j"):
        "2bc40c690f9282e00c7e40d9612a472425d0f00dbd922570632c38b0ab188944",
    ("inozemtsev", "0.2j"):
        "b1208877e3260c5a06ef4fb47f0a583fc0a6c516eb0779f0f07090b617b9b388",
    ("monodromy", "1j"):
        "c9b2bb79e53377a562ce1a55ab70858b74bebf67def9a41163be2c7d4b5a7998",
    ("monodromy", "0.3+1.1j"):
        "816e531fbadb7f37870dfbf77060c47cc901792cf011585831f405baae28d355",
    ("monodromy", "0.2j"):
        "08e323dc5f3b6f1baf1aa66379dbc9585977f246f1374a1d8218a87e53250b7d",
    ("cryst3", None):
        "15c8f7c90bd6127605ab72c2eed97a7683233e2a29a5532f937fb48ce9780384",
}


@pytest.mark.parametrize("name,tau", list(MANY_BODY_DIGESTS),
                         ids=[f"{name}-{tau}" for name, tau in MANY_BODY_DIGESTS])
def test_many_body_output_is_pinned(capsys, name, tau):
    argv = MANY_BODY_COMMANDS[name] + (() if tau is None else ("--tau", tau))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MANY_BODY_DIGESTS[name, tau]


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


#: one input of each subcommand that does exact work only
EXACT_COMMANDS = [
    ["constraints", "--q", "2", "--r", "2"],
    ["locus", "--r", "2", "--q-max", "5"],
    ["jtable", "--r", "1", "--count", "2"],
    ["reconstruct", "--r", "2", "--quantity", "c/e2"],
    ["commute", "--operator", "second:a=-2", "--order", "3"],
    ["indicial", "--n", "2", "--b2", "-6"],
    ["homog-check", "--n", "3", "--indices=-1,1,3"],
]


def test_the_exact_commands_run_with_numpy_blocked(capsys):
    # importing numpy raises in the child, so any use of it would change
    # an exit code or a stdout
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from ellop.cli import main
        out = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out.append([main(argv), buf.getvalue()])
        print(json.dumps(out))
    """)
    child = subprocess.run([sys.executable, "-c", code, json.dumps(EXACT_COMMANDS)],
                           env=_src_env(), check=True, capture_output=True, text=True)
    blocked = json.loads(child.stdout)
    assert blocked == [list(run(capsys, *argv)[:2]) for argv in EXACT_COMMANDS]
