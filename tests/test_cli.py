"""Command-line contract: formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superschur.suites
from superschur import CapExceeded, FormatError, GrassmannElement, SuperDim, SuperMatrix
from superschur.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gl_point_file(tmp_path, name="point.json"):
    one = GrassmannElement.scalar(2, 1)
    x1 = GrassmannElement.generator(2, 1)
    x2 = GrassmannElement.generator(2, 2)
    mat = SuperMatrix(SuperDim(1, 1), [[one, x1], [x2, one]], 2)
    path = tmp_path / name
    path.write_text(json.dumps(mat.to_json()))
    return str(path)


def test_tableaux_table_output(capsys):
    code, out, err = run_cli(["tableaux", "-m", "1", "-n", "1", "-r", "2"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["shape", "syt", "ssyt", "admissible"]
    assert lines[1].split() == ["[2]", "1", "2", "yes"]
    assert lines[2].split() == ["[1,1]", "1", "2", "yes"]
    assert lines[3] == "sum syt*ssyt = 4 = (1+1)^2 = 4"


def test_tableaux_json_is_the_pinned_array(capsys):
    code, out, _ = run_cli(
        ["tableaux", "-m", "1", "-n", "1", "-r", "2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"shape": [2], "syt": 1, "ssyt": 2, "admissible": True},
        {"shape": [1, 1], "syt": 1, "ssyt": 2, "admissible": True},
    ]


def test_tableaux_list_prints_fillings(capsys):
    code, out, _ = run_cli(
        ["tableaux", "-m", "1", "-n", "1", "-r", "2", "--list"], capsys
    )
    assert code == 0
    assert "fillings of [2]: 2" in out
    assert "  t1 t1" in out
    assert "  t1 u1" in out
    assert "  t1 / u1" in out
    assert "  u1 / u1" in out


def test_tableaux_json_list_embeds_fillings(capsys):
    code, out, _ = run_cli(
        ["tableaux", "-m", "1", "-n", "1", "-r", "2", "--format", "json", "--list"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["fillings"] == [[["t1", "t1"]], [["t1", "u1"]]]
    assert data[1]["fillings"] == [[["t1"], ["u1"]], [["u1"], ["u1"]]]


def test_verify_emits_json_lines(capsys):
    code, out, _ = run_cli(["verify", "schurweyl", "-m", "1", "-n", "1", "-r", "2"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [rec["check"] for rec in lines] == [
        "double_centralizer",
        "multiplicity_identity",
    ]
    assert all(rec["pass"] for rec in lines)
    assert lines[0]["dim_tau"] == 2 and lines[0]["dim_theta"] == 8
    assert lines[0]["per_shape"] == [
        {"shape": [2], "syt": 1, "ssyt": 2},
        {"shape": [1, 1], "syt": 1, "ssyt": 2},
    ]


# sha256 of stdout, recorded before TensorOperator and SuperMatrix kept
# their entries sparse: a change of representation must not alter output
PINNED_STDOUT = {
    "verify actions -m 2 -n 1 -r 3": "24815fa0b4d368d279655550b6c06b1f4b31a7f277e2b5a7f11c29ee4dd224df",
    "verify bracket -m 2 -n 1": "c3f15a68cea24624ef32a1a004cc5606a3327e1523d878e0eed6c65ec58f110e",
    "verify group -m 1 -n 1 -r 2 --grassmann-n 4 --seed 0": "96e80054ef4922790183b7c31e1c8b9b463de1440ed75d65efea5e5d7393d451",
    # recorded before RowSpace kept primitive integer rows: its classical
    # even-part check compares two spaces, which needs a canonical form
    "verify group -m 2 -n 1 -r 3": "209bf1cdd4764e9ccba2cbe2940a7adc464307ba76ffdeb181f5acdcf746e1d4",
    # recorded before each suite formed every bracket, theta(E_ij), Lambda_2
    # point and tau once and shared it between its checks
    "verify actions -m 1 -n 1 -r 4": "eee0bcf95cd4b1a2d9591370ad83b62514d848a4418b9be39f559386c5ae6bf8",
    "verify actions -m 2 -n 0 -r 2": "7cb82e88c4888c3ca06abef3362e4754bb33e1b3c5f32002a446699be66b5119",
    "verify bracket -m 1 -n 2": "5a4c00f7a01651c52ad5a755641eaf7a83e360bf3c02aec5444154cf132ed25e",
    "verify group -m 0 -n 3 -r 2 --grassmann-n 3": "b666d591cbd46bbe51cd709ff05c1a788875cb305f371aee652d244865a7a90a",
    # recorded before the group suite drew its sampled pairs once and fed
    # every sampled check from one pass over them
    "verify group -m 1 -n 1 -r 2 --grassmann-n 4 --seed 1": "078d4de90a457b5bdd45fd96edc5bcb9968cf990a324f14ce3160fcf1a65e34f",
    "verify group -m 1 -n 1 -r 3 --grassmann-n 6 --seed 1": "91fd893a7ce6f07e4c07ef12afefdfc95fa60158f6892e5022f87ad68025d454",
    "verify group -m 2 -n 2 -r 1 --grassmann-n 10 --seed 1": "1db6f6163edef97cf874475fafa4ddec01f0e82adf586515536184babffd28ab",
    "verify group -m 3 -n 2 -r 1 --grassmann-n 8 --seed 1": "adbabf1d1225b32ce4c8eb482ac26361dba6ac917aa57f775696da495d27ede3",
    "verify group -m 1 -n 2 -r 2 --grassmann-n 5 --seed 7": "f88fe97339948dddaadf0c222f7c70c9837bc47745337e2fe4717b09b340dff9",
    # recorded before Lambda_N matrix, elimination and tensor entries were
    # each summed by one multiply-accumulate call
    "verify group -m 2 -n 2 -r 3": "1091ff5f3db58eb9de3add418642c85820540d59179fbee4342bcb7649b35eb6",
    # recorded before each double-centralizer closure stopped once it
    # reached the dimension of the centralizer holding it
    "verify schurweyl -m 1 -n 1 -r 4": "d16466c11194902c23fc66677bea02bcc74f8804a97ded73a7f46d7312fd8384",
    "verify schurweyl -m 2 -n 1 -r 2": "c6d9a9ca7c812d61e709ea2870468535069f940c05296c278240639deeeb944e",
    "verify schurweyl -m 1 -n 2 -r 2": "218aff39f29521ac96c9a24e7ad649b287396d46dbe0f23c4231e07fe83719a7",
    "verify schurweyl -m 3 -n 0 -r 2": "1929cad55c4dd0f2e2969b8782955cb0fd49159f7f4500fafe73746ab27ebc1b",
    "verify schurweyl -m 2 -n 0 -r 3": "26b3d5ced8da1f67e0ade87ee6a3009cf1bae9e81c16d41243d22dce2a1df35a",
    "verify schurweyl -m 2 -n 2 -r 3": "d58092bb305ca8e47f762117755ebe19a27a0ab3e8731c2625eabcb20ebd8353",
    "verify schurweyl -m 4 -n 0 -r 3": "dcc80ec981aae43bb78c91c0a9eff18528d1021562ccf74958ec1f22495fa602",
    # recorded before TensorOperator stored only its nonempty columns
    "verify actions -m 2 -n 2 -r 2": "d54a2dd1cd018585534aa71b34220ef84594d8db1a548c031967249a7a92b3c2",
    "verify actions -m 8 -n 0 -r 1": "86a777895ce1b63425d56d60a7288fd4fc910d518896e70fe59f315517f7084e",
    # side-16 configs with odd indices, recorded before SuperMatrix took the
    # TensorOperator layout and product kernel
    "verify actions -m 8 -n 8 -r 1": "900a2972a2e4cb65326595dd4f200ba1edf9c9b4a215546e8f07d3190ee9cc8b",
    "verify group -m 8 -n 8 -r 1": "ced3d9bbf7ed8a1f695170b19be723b0478bb644b5b00169510bc495c20abbe2",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_verify_stdout_is_pinned(command, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


# sha256 of the records when the suites bracket with the ungraded commutator
# xy - yx: the failures lists, witnesses and passing checks of a failing run
# are pinned too, recorded before the suites shared their elementary objects
PINNED_FAILURES = {
    ("bracket", 1, 1): "51c74fb9413db8e33f3d0ca9bfb31d89e07ac520f8b4c29ac16d78edf4ebeb59",
    ("bracket", 2, 1): "c8c281862250c07d20bc6ddc47925963ed436b1534e6d924ad76aba5b99b8190",
    ("actions", 1, 1, 2): "05c40bf26c0b6c5f63806af82dff7f88db69b80a360448dbf77aefbeea4000a0",
    ("actions", 1, 1, 3): "6aa57d3e44fd974b4079622b915d249517ea5e1988330520e52f9d4fffd58fdf",
    ("actions", 2, 1, 2): "4401a3f1c272c891a1cb75a02631cdf57cdc486a4f82443152e57a4c97d6b301",
    # configs with two odd indices, recorded before nested brackets and
    # theta of a bracket were read from the bracket table by bilinearity
    ("bracket", 1, 2): "ee61de5070b872ca125a74323736f4b52875ee046f637c6f80e761779200c526",
    ("bracket", 2, 2): "0e38fb6bfd011566e4b97fe085fba1ddcbd439fe53788a8222a5c6c8694d8234",
    ("actions", 1, 2, 2): "7cebceee97b7c0a5a43449b30f6c317404601cc690db66bc96abb1b8977d47e7",
    ("actions", 2, 2, 2): "e1a443b71f39df9feb0e5a7aaa81e0aab88798d5326f85adfd5792967d48de03",
}


@pytest.mark.parametrize("key", sorted(PINNED_FAILURES))
def test_failing_records_are_pinned(key, monkeypatch):
    suites = superschur.suites
    monkeypatch.setattr(suites, "superbracket", lambda x, y: x * y - y * x)
    suite = suites.suite_bracket if key[0] == "bracket" else suites.suite_actions
    records = suite(*key[1:])
    assert not all(record["pass"] for record in records)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_FAILURES[key]


# sha256 of the actions records when swap_letters drops the sign for the odd
# letters strictly between the swapped places, recorded before the suite read
# every link of both decompositions from one table of transpositions.  An
# adjacent swap crosses no letters, so only the cycle decompositions change.
PINNED_SWAP_FAILURES = {
    (2, 1, 3): "ea76a14d00e52e5ae15fc1b0f6e2b8412de2aa3573b6e83abc8e896508b0b487",
    (1, 2, 3): "2a5500b129d5627ffb5987232f92c2961824409bb0b3d3c2052417f8a4638bc7",
    (1, 1, 4): "7f3611a3a4d7d337b64c177f2b1b9e611771e30bce6ca2e0974ff6454f019cc5",
}


def swap_without_between(dim, word, i, j):
    """swap_letters without the term for the odd letters between i and j."""
    pi, pj = dim.parity(word[i - 1]), dim.parity(word[j - 1])
    swapped = list(word)
    swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
    return (-1 if pi & pj else 1), tuple(swapped)


@pytest.mark.parametrize("key", sorted(PINNED_SWAP_FAILURES))
def test_failing_swap_records_are_pinned(key, monkeypatch):
    monkeypatch.setattr(superschur.tensor, "swap_letters", swap_without_between)
    records = superschur.suites.suite_actions(*key)
    assert [record["check"] for record in records if not record["pass"]] == [
        "tau_decomposition_independence"
    ]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SWAP_FAILURES[key]


# sha256 of the bracket records when the Lambda_2 points drop their row sign
# (entry (r, s) = coeff * mat[r][s] for every row), recorded before the
# even-rules check kept its points as sparse maps
PINNED_EVEN_RULES_FAILURES = {
    (1, 1): "ebb5fee152bf4e98720fa897267ee0633cdcf46c47bcd62a856a9a019882a3c8",
    (2, 1): "524cb53381414be75fd6e1fa925e88ebf347dc240a6c1c172e635454a9870c84",
    (1, 2): "3c76b377281237118b86082a0b5fa4d9ac5f94e74437a67006cdde8cdff97f16",
    (2, 2): "cd0a17a78d84b5b28531aa1f8549c5e7b995277e2a3a9f85759f337dbe7012b0",
}


def unsigned_point(coeff, mat):
    """gl_point without the row sign (-1)^{p(coeff) p(r)}."""
    zero = GrassmannElement.zero(coeff.num_generators)
    rows = [[coeff * e if e else zero for e in row] for row in mat.entries]
    return SuperMatrix(mat.dim, rows, coeff.num_generators)


@pytest.mark.parametrize("key", sorted(PINNED_EVEN_RULES_FAILURES))
def test_failing_even_rules_records_are_pinned(key, monkeypatch):
    suites = superschur.suites
    monkeypatch.setattr(suites, "gl_point", unsigned_point)
    records = suites.suite_bracket(*key)
    assert [record["check"] for record in records if not record["pass"]] == [
        "even_rules_consistency"
    ]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_EVEN_RULES_FAILURES[key]


# sha256 of the schurweyl records when tau is unsigned (every entry replaced
# by its absolute value), recorded before the generated algebras and
# centralizers came back as bare row spaces
PINNED_SCHURWEYL_FAILURES = {
    (1, 1, 2): "a81f4cb95e8c1d5a58d581b00751ef03710e575fd7ab12a34a4965c8f1302643",
    (1, 1, 3): "37546883a555be566212366b078c476d5e447076144991b03e8f9cf9516e49ec",
    (2, 1, 2): "bfc1e413bee1b4a14a9e6b786c654be81dc790d800c9d0e25dbfb1d795ef55ec",
    (1, 2, 3): "a49c76d069a671b9c49cc571f67f69dccc54c3f1b3fcbcfdd0ca2bc6efb23371",
}


def unsigned(build):
    """build, with every entry of the operator it returns replaced by its
    absolute value."""

    def patched(*args):
        op = build(*args)
        return superschur.TensorOperator(op.dim, op.r, [[abs(e) for e in row] for row in op.matrix])

    return patched


@pytest.mark.parametrize("key", sorted(PINNED_SCHURWEYL_FAILURES))
def test_failing_schurweyl_records_are_pinned(key, monkeypatch):
    commutant = superschur.commutant
    monkeypatch.setattr(commutant, "transposition_operator", unsigned(commutant.transposition_operator))
    records = superschur.suites.suite_schurweyl(*key)
    assert records[0]["double_centralizer"] is False
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SCHURWEYL_FAILURES[key]


# sha256 of the schurweyl records when theta is unsigned, recorded before the
# closures stopped at the centralizer's dimension.  Unsigned theta commutes
# with no tau, and its algebra outgrows cent(tau): a closure bounded by
# cent(tau) without the commute check would report dim cent(tau) instead.
PINNED_SCHURWEYL_THETA_FAILURES = {
    (1, 1, 2): "0ff89c95819180efd72cb062c30909d2a3b154dc87045a41719c4cf6260d8ac0",
    (1, 1, 3): "094c01c12bd965090dd668fb1c3879a51ecef39e2d6eddecc0df0d2a335eada2",
    (2, 1, 2): "e64eeda45aee7e7bfd463be426c32ea6a04d80b17ce98809c10faccdf250635d",
    (1, 2, 3): "55ebde9ea3e1e65c8a9ac02d2d4618f84a2714ed7c2a9e290b4b6c67fa486876",
}


@pytest.mark.parametrize("key", sorted(PINNED_SCHURWEYL_THETA_FAILURES))
def test_failing_schurweyl_records_with_unsigned_theta_are_pinned(key, monkeypatch):
    commutant = superschur.commutant
    monkeypatch.setattr(commutant, "derivation_operator", unsigned(commutant.derivation_operator))
    records = superschur.suites.suite_schurweyl(*key)
    assert records[0]["double_centralizer"] is False
    dim, r = superschur.SuperDim(*key[:2]), key[2]
    cent_tau = commutant.centralizer(dim, r, commutant.symmetric_group_generators(dim, r))
    assert records[0]["dim_theta"] > cent_tau.dim
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SCHURWEYL_THETA_FAILURES[key]


def spoiled(fn, wrong):
    """fn, but wrong(value) on about a third of its inputs.  The inputs are
    picked by a sha256 of their repr, which is the same in every process
    (hash(None), part of a rational matrix's hash, is not)."""

    def patched(*args):
        value = fn(*args)
        return wrong(value) if hashlib.sha256(repr(args).encode()).digest()[0] % 3 == 0 else value

    return patched


# sha256 of the group suite's records when five of the functions it checks
# return wrong values on some inputs: the order of every failures list is
# pinned, recorded before the suite fed its sampled checks from one pass
PINNED_GROUP_FAILURES = {
    (1, 1, 2, 4, 0): "956f41990aba9035fedaff8e295d5cc97c88e6a433e7f9cd632f9318316d99fd",
    (2, 1, 2, 4, 0): "eacb0307aedd9e1a175a9a71cd97fa40538cdb16dc10a3e7a47965bcd98f7d99",
    (1, 2, 1, 5, 7): "f00e096ea729eaf9de0fa29848ba629da21357645214d3085db18da555a10fe0",
    (2, 2, 1, 4, 0): "ded1428a51bc2159ef49c9b53e8901a64bba3d16f7c376a112ff90c1947a8b79",
    (2, 0, 2, 3, 0): "83831cbc8feb98c836c38682d73ddc3a90f136ae26d48ba3498ef89b54df8dd8",
    (0, 2, 1, 3, 7): "fa6e8623e9a73f8a63b18f2fe17622b384a9010664625bdf15071dc311870303",
}


@pytest.mark.parametrize("key", sorted(PINNED_GROUP_FAILURES))
def test_failing_group_records_are_pinned(key, monkeypatch):
    suites = superschur.suites
    wrong = {
        "berezinian": lambda value: value + 1,
        "supertrace": lambda value: value + 1,
        "ldu_factor": lambda factors: (factors[0].scale(2),) + factors[1:],
        "diagonal_operator": lambda op: op.scale(2),
        "realize_elementary_factors": lambda mat: mat.scale(2),
    }
    for name, spoil in wrong.items():
        monkeypatch.setattr(suites, name, spoiled(getattr(suites, name), spoil))
    m, n, r, grassmann_n, seed = key
    records = suites.suite_group(m, n, r, grassmann_n=grassmann_n, seed=seed)
    assert not all(record["pass"] for record in records)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_GROUP_FAILURES[key]


def pinned_point(m, n, grassmann_n, seed):
    """A fixed GL point built from integers only.

    Diagonal blocks have body 5/2..7/2 on the diagonal and -1/2..1/2 off it,
    so they are invertible, plus degree-2 souls over Lambda_N; the odd blocks
    hold monomials of degree 1 and 3.
    """
    rng = random.Random(seed)
    size = m + n

    def monomial(degree):
        gens = sorted(rng.sample(range(1, grassmann_n + 1), degree))
        return GrassmannElement.monomial(grassmann_n, gens, rng.choice((-2, -1, 1, 2)))

    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if (i < m) != (j < m):
                entry = 0
                if grassmann_n is not None:
                    entry = monomial(1) + monomial(3)
            else:
                entry = Fraction(rng.choice((5, 6, 7)) if i == j else rng.choice((-1, 0, 1)), 2)
                if grassmann_n is not None:
                    entry = monomial(2) + entry
            row.append(entry)
        rows.append(row)
    return SuperMatrix(SuperDim(m, n), rows, grassmann_n)


# sha256 of `berezinian -` and `factor -` stdout on fixed GL points, recorded
# before the Berezinian and the LDU factors shared one unit-pivot elimination
PINNED_POINTS = {
    (2, 0, None): (
        "24090226050aa86b800672b3ac16123b39bf1d3416076644a810b5619e0f3627",
        "ae3cc5a906626d2562d5cbbfa9d8ea45968e031c6f0704fa6dbde699b04084d4",
    ),
    (0, 2, None): (
        "3ad4f50041a898019649eb152820a4845982c98f292268aac348075614e4701d",
        "0b82b59416726468a4511315b2827645665a184984cbd8f45f630b0fcc4de93a",
    ),
    (2, 1, 4): (
        "b198ac4890cceb397389f67b77f01d0c58dbe984a393f6e473b0c42c18eb8879",
        "3dfd3b2d1e82e625192c7a96c6d113796bed89715853d333c9d1c8930a5d61c1",
    ),
    (3, 2, 8): (
        "da7a8f2df3e577a6c73a277244ca5b5cb2534f20de7f656364138e054e8c10db",
        "53f875e40cf8bd66d57281d67bc0553b6e809a7c5b094c04635f11c6f6545f91",
    ),
    (3, 0, 5): (
        "ef693a32110b3e69e76e9297965c4c81f5d837234be34c98bb0a9fa24897e62c",
        "3ac13c149586c5b9d0f68d6a9ba197fe511853f6e14c81c1de3686910a0823d2",
    ),
    (0, 2, 3): (
        "dfaefc0009c034f12dacaa9ccc539df79099813279eb6f175379704129086929",
        "1d500b05732c2f8d39afebc0db8879b29401b98aa5d7233963b1b75331015a50",
    ),
}


@pytest.mark.parametrize("point", list(PINNED_POINTS), ids=str)
def test_point_stdout_is_pinned(point, monkeypatch, capsys):
    text = json.dumps(pinned_point(*point, seed=sum(point[:2])).to_json())
    for command, pinned in zip(("berezinian", "factor"), PINNED_POINTS[point]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli([command, "-"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned, command


def test_verify_bracket_runs_without_r(capsys):
    code, out, _ = run_cli(["verify", "bracket", "-m", "1", "-n", "1"], capsys)
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.splitlines())


def test_verify_output_is_deterministic(capsys):
    args = ["verify", "group", "-m", "1", "-n", "1", "-r", "2", "--seed", "5"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_berezinian_output(tmp_path, capsys):
    path = gl_point_file(tmp_path)
    code, out, _ = run_cli(["berezinian", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["berezinian"] == {
        "n": 2,
        "terms": [{"coeff": "1", "gens": []}, {"coeff": "-1", "gens": [1, 2]}],
    }
    assert data["supertrace"] == {"n": 2, "terms": []}


def test_berezinian_of_rational_identity(tmp_path, capsys):
    mat = SuperMatrix.identity(SuperDim(2, 1))
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(mat.to_json()))
    code, out, _ = run_cli(["berezinian", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["berezinian"] == {"n": 0, "terms": [{"coeff": "1", "gens": []}]}
    assert data["supertrace"] == {"n": 0, "terms": [{"coeff": "1", "gens": []}]}


def test_berezinian_rejects_singular_body(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps({"m": 1, "n": 1, "ring": "Q", "entries": [["0", "0"], ["0", "1"]]})
    )
    code, out, err = run_cli(["berezinian", str(path)], capsys)
    assert code == 1 and out == ""
    assert "GL point" in err


def test_factor_round_trips(tmp_path, capsys):
    path = gl_point_file(tmp_path)
    code, out, _ = run_cli(["factor", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    upper = SuperMatrix.from_json(data["upper"])
    blockdiag = SuperMatrix.from_json(data["blockdiag"])
    lower = SuperMatrix.from_json(data["lower"])
    original = SuperMatrix.from_json(json.loads(Path(path).read_text()))
    assert upper * blockdiag * lower == original


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(["berezinian", str(bad)], capsys)
    assert code == 2 and "not valid JSON" in err
    code, _, err = run_cli(["berezinian", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"m": 1}))
    code, _, err = run_cli(["berezinian", str(schema)], capsys)
    assert code == 2 and "missing" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[Infinity]]}',
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[NaN]]}',
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[0.1]]}',
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[1e400]]}',
        '{"m": true, "n": 0, "ring": "Q", "entries": [[1]]}',
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[true]]}',
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": true, "entries": [[1]]}',
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries": [[0.5]]}',
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries":'
        ' [[{"n": 1, "terms": [{"gens": [true], "coeff": "1"}]}]]}',
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries":'
        ' [[{"n": true, "terms": []}]]}',
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries":'
        ' [[{"n": 1, "terms": [{"gens": [], "coeff": 0.1}]}]]}',
        '{"m": 1, "n": 0, "ring": "Q", "entries": [[' + "7" * 5000 + "]]}",
    ],
)
def test_wire_refuses_floats_and_bools(tmp_path, capsys, text):
    path = tmp_path / "point.json"
    path.write_text(text)
    code, out, err = run_cli(["berezinian", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("superschur: ")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100000, id="100000-deep-array"),
        pytest.param(
            '{"m": 1, "n": 0, "ring": "Q", "entries": [[' + "[" * 5000 + "]" * 5000 + "]]}",
            id="5000-deep-entry",
        ),
    ],
)
@pytest.mark.parametrize("command", ["berezinian", "factor"])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_deeply_nested_json_is_a_format_error(tmp_path, monkeypatch, capsys, text, command, source):
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text)
    code, out, err = run_cli([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("superschur: ") and "nested too deeply" in err
    assert err.count("\n") == 1


def rational_payloads(coeff):
    """(1|0) points carrying coeff as a Q entry, as a scalar Lambda_1 entry
    and as the coefficient of a Lambda_1 element."""
    element = {"n": 1, "terms": [{"gens": [], "coeff": coeff}]}
    return [
        json.dumps({"m": 1, "n": 0, "ring": "Q", "entries": [[coeff]]}),
        json.dumps({"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries": [[coeff]]}),
        json.dumps({"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries": [[element]]}),
    ]


def test_wire_refuses_exponent_strings(monkeypatch, capsys):
    # "1e5" comes first: were exponents accepted again, the test fails on it
    # before Fraction is asked to expand the huge forms
    for coeff in ("1e5", "1E5", "1e999999999", "1e-999999999"):
        for text in rational_payloads(coeff):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, err = run_cli(["berezinian", "-"], capsys)
            assert (code, out) == (2, ""), coeff
            assert "exponent" in err, coeff


@pytest.mark.parametrize(
    "coeff",
    [
        "1.5",
        "+3",
        " 2",
        "1_000",
        "\u0661",  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
        "1/-2",
        "1 / 2",
        "1/0",
        pytest.param("7" * 5000, id="5000-digits"),
        pytest.param("7" * 5000 + "/0", id="5000-digits-over-zero"),
        pytest.param("x" * 5000, id="5000-letters"),
    ],
)
def test_wire_refuses_strings_outside_the_grammar(monkeypatch, capsys, coeff):
    # a wire rational string is -?[0-9]+(/[0-9]+)?, whatever else int() or
    # Fraction() would read; the refusal quotes a long string only in part
    for text in rational_payloads(coeff):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(["berezinian", "-"], capsys)
        assert (code, out) == (2, "") and err.startswith("superschur: "), text[:80]
        assert len(err) < 200, err[:200]


def test_wire_takes_integers_and_fraction_strings(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(
        '{"m": 1, "n": 1, "ring": "grassmann", "grassmann_n": 1, "entries":'
        ' [["3/2", {"n": 1, "terms": [{"gens": [1], "coeff": 2}]}], [0, 1]]}'
    )
    code, out, _ = run_cli(["berezinian", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["berezinian"] == {
        "n": 1,
        "terms": [{"coeff": "3/2", "gens": []}],
    }


def test_cap_exit_three(capsys):
    code, _, err = run_cli(["verify", "schurweyl", "-m", "2", "-n", "2", "-r", "4"], capsys)
    assert code == 3 and "cap" in err


def test_bracket_cap_exit_three(monkeypatch, capsys):
    # the cap bounds (m+n)^2, the side at r = 2, before any bracket is formed
    def never(*args, **kwargs):
        raise AssertionError("work started past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(superschur.suites, "_bracket_table", never)
        for dims, refusal in (
            ("-m 5 -n 4", "gl(5|4) has dimension 81 > cap 64"),
            ("-m 64 -n 0", "gl(64|0) has dimension 4096 > cap 64"),
            ("-m 2 -n 1 --cap 8", "gl(2|1) has dimension 9 > cap 8"),
        ):
            code, out, err = run_cli(["verify", "bracket"] + dims.split(), capsys)
            assert code == 3 and out == ""
            assert refusal in err
        patch.setenv("SUPERSCHUR_CAP", "8")
        code, out, err = run_cli(["verify", "bracket", "-m", "2", "-n", "1"], capsys)
        assert code == 3 and out == "" and "> cap 8" in err
    code, _, _ = run_cli(["verify", "bracket", "-m", "2", "-n", "1", "--cap", "9"], capsys)
    assert code == 0


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SUPERSCHUR_CAP", "2")
    code, _, err = run_cli(["tableaux", "-m", "1", "-n", "1", "-r", "2"], capsys)
    assert code == 3
    monkeypatch.setenv("SUPERSCHUR_CAP", "500")
    code, _, _ = run_cli(["tableaux", "-m", "1", "-n", "1", "-r", "8"], capsys)
    assert code == 0
    for junk in ("junk", "0", "-5"):
        monkeypatch.setenv("SUPERSCHUR_CAP", junk)
        code, out, err = run_cli(["tableaux", "-m", "1", "-n", "1", "-r", "2"], capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "SUPERSCHUR_CAP" in err and repr(junk) in err


def test_cap_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("SUPERSCHUR_CAP", "2")
    code, _, _ = run_cli(["tableaux", "-m", "1", "-n", "1", "-r", "2", "--cap", "10"], capsys)
    assert code == 0


def test_generator_count_cap_exit_three(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("work started past the generator cap")

    monkeypatch.setattr(superschur.suites, "run_suite", never)
    monkeypatch.setattr(superschur.cli, "berezinian", never)
    big = 10**6
    for suite in ("group", "bracket"):
        code, out, err = run_cli(
            ["verify", suite, "-m", "1", "-n", "1", "--grassmann-n", str(big)], capsys
        )
        assert code == 3 and out == "" and "cap" in err
    path = tmp_path / "point.json"
    for text in (
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": %d, "entries": [[1]]}' % big,
        '{"m": 1, "n": 0, "ring": "grassmann", "grassmann_n": 1, "entries":'
        ' [[{"n": %d, "terms": [{"gens": [%d], "coeff": "1"}]}]]}' % (big, big),
    ):
        path.write_text(text)
        code, out, err = run_cli(["berezinian", str(path)], capsys)
        assert code == 3 and out == "" and "cap" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "-n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "-m", "0", "-n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch", "-m", "1", "-n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tableaux", "-m", "1", "-n", "1", "-r", "0"])
    assert exc.value.code == 2


def test_group_suite_needs_grassmann_generators(capsys):
    code, _, err = run_cli(
        ["verify", "group", "-m", "1", "-n", "1", "-r", "2", "--grassmann-n", "1"],
        capsys,
    )
    assert code == 2 and "grassmann" in err.lower()


def fresh_python(args):
    """Run a new interpreter that imports the same superschur package as
    this one, installed or not."""
    package_root = str(Path(superschur.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input="", capture_output=True, text=True, env=env
    )


def fresh_interpreter(argv):
    """Run the CLI in a new interpreter on the same superschur package."""
    return fresh_python(["-m", "superschur.cli", *argv])


def test_installed_entry_point():
    proc = fresh_interpreter(["tableaux", "-m", "1", "-n", "1", "-r", "2"])
    assert proc.returncode == 0
    assert "sum syt*ssyt = 4" in proc.stdout


# Run in a fresh interpreter: which of the heavy modules each step has loaded
STARTUP_PROBE = """
import json, sys
import superschur.cli

WATCHED = ("superschur.suites", "superschur.commutant", "superschur.tensor",
           "superschur.tableaux", "dataclasses", "inspect")
loaded = lambda: [name for name in WATCHED if name in sys.modules]
steps = [loaded()]
for argv in (["berezinian", sys.argv[1]], ["factor", sys.argv[1]],
             ["verify", "schurweyl", "-m", "1", "-n", "1", "-r", "2"]):
    assert superschur.cli.main(argv) == 0
    steps.append(loaded())
print(json.dumps(steps))
"""


def test_gl_point_commands_load_only_what_they_run(tmp_path):
    proc = fresh_python(["-c", STARTUP_PROBE, gl_point_file(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    suites = ["superschur.suites", "superschur.commutant", "superschur.tensor", "superschur.tableaux"]
    # after the import, berezinian and factor; then verify loads the suites
    assert steps == [[], [], [], suites]


def test_one_process_runs_many_commands_like_fresh_ones(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process; the commands, an argparse error
    # and the "need m + n >= 1" refusal among them, must not see each other
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
    point = gl_point_file(tmp_path)
    sequence = [
        ["tableaux", "-m", "1", "-n", "1", "-r", "3", "--format", "json"],
        ["verify", "schurweyl", "-m", "1", "-n", "1", "-r", "2"],
        ["tableaux", "-n", "1"],
        ["berezinian", point],
        ["tableaux", "-m", "0", "-n", "0"],
        ["verify", "group", "-m", "1", "-n", "1", "-r", "2", "--grassmann-n", "1"],
        ["verify", "schurweyl", "-m", "2", "-n", "2", "-r", "4"],
        ["verify", "bracket", "-m", "1", "-n", "1", "--seed", "3"],
        ["factor", point],
        ["tableaux", "-m", "2", "-n", "1", "-r", "2", "--list"],
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = fresh_interpreter(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 2, 2, 3, 0, 0, 0]


# sha256 of `berezinian FILE` and `factor FILE` stdout, recorded before the
# package and the CLI imported their modules on first use: the GL-point
# commands are the ones whose import path changed most
PINNED_GL_COMMANDS = {
    "rational (2|1)": (
        lambda: pinned_point(2, 1, None, seed=11),
        "45ede3530a7de009b27b65bace4edaf949d04b199ed6acaaf0fde741b4d74a42",
        "468ea88d10fa21a050d9540ab9afbbca82a9fe0a849d5495c97fb1737f36a279",
    ),
    "(1|1) over Lambda_4": (
        lambda: pinned_point(1, 1, 4, seed=12),
        "fef40b2b287f678cada7cc30fc60a8655ba6044ea45c2092d72d26d01453d27c",
        "14725c260b0743859bc8a0f30b5bd808ebf928544c1f197bbc3cd2418d8b49f7",
    ),
    "(3|2) product over Lambda_8": (
        lambda: pinned_point(3, 2, 8, seed=13) * pinned_point(3, 2, 8, seed=14),
        "f195c2880b988f1b67effe998f2ba6210a02586b312b38d8afa79af6a7ffc585",
        "25cd16625a990aca80a595a34fcfd74da9685f02cb80ee6899e85b26c2778132",
    ),
}


@pytest.mark.parametrize("point", sorted(PINNED_GL_COMMANDS))
def test_gl_command_stdout_is_pinned(point, tmp_path, capsys):
    build, *pins = PINNED_GL_COMMANDS[point]
    path = tmp_path / "point.json"
    path.write_text(json.dumps(build().to_json()))
    for command, pinned in zip(("berezinian", "factor"), pins):
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == pinned, command
        fresh = fresh_interpreter([command, str(path)])
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), command


# --- fuzzing the wire format ---------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
wire_rationals = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4", "0"])


def wire_elements(grassmann_n):
    term = st.fixed_dictionaries(
        {
            "gens": st.lists(st.integers(1, grassmann_n), unique=True).map(sorted)
            if grassmann_n
            else st.just([]),
            "coeff": wire_rationals,
        }
    )
    return st.fixed_dictionaries({"n": st.just(grassmann_n), "terms": st.lists(term, max_size=3, unique_by=lambda t: tuple(t["gens"]))})


@st.composite
def near_points(draw):
    """A point in the wire format, a third of the time with one field or
    entry replaced by arbitrary JSON: arbitrary JSON alone almost never
    reaches the parsing of entries or the GL test."""
    size = draw(st.integers(1, 3))
    m = draw(st.integers(0, size))
    ring = draw(st.sampled_from(["Q", "grassmann"]))
    point = {"m": m, "n": size - m, "ring": ring}
    entry = wire_rationals
    if ring == "grassmann":
        point["grassmann_n"] = draw(st.integers(0, 3))
        entry = wire_rationals | wire_elements(point["grassmann_n"])
    row = st.lists(entry, min_size=size, max_size=size)
    point["entries"] = draw(st.lists(row, min_size=size, max_size=size))
    spoil = draw(st.sampled_from(["entry", *point])) if draw(st.integers(0, 2)) == 0 else None
    if spoil == "entry":
        point["entries"][draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(json_values)
    elif spoil is not None:
        point[spoil] = draw(json_values)
    return point


NOT_GL = {
    "berezinian": "superschur: Berezinian needs a GL point\n",
    "factor": "superschur: LDU factorization needs a GL point\n",
}


@settings(max_examples=300, deadline=None)
@given(json_values | near_points())
def test_wire_input_meets_the_exit_code_contract(value):
    try:
        SuperMatrix.from_json(value)
        parsed = True
    except FormatError:
        parsed = False
    except CapExceeded:
        parsed = None
    text = json.dumps(value)
    for command in ("berezinian", "factor"):
        saved = sys.stdin
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "-"])
        finally:
            sys.stdin = saved
        out, err = out.getvalue(), err.getvalue()
        if parsed is None:
            assert (code, out) == (3, "") and "cap" in err
        elif not parsed:
            assert (code, out) == (2, "") and err.startswith("superschur: ")
        elif code == 0:
            assert err == "" and json.loads(out)
        else:
            assert (code, out, err) == (1, "", NOT_GL[command])


def test_even_points_with_a_singular_body_exit_1(monkeypatch, capsys):
    # W's body singular, then X's, on (1|1) and (2|1) over Lambda_2
    one, zero = GrassmannElement.scalar(2, 1), GrassmannElement.zero(2)
    x1, x2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    points = [
        (SuperDim(1, 1), [[one, x1], [x2, x1 * x2]]),
        (SuperDim(1, 1), [[x1 * x2, x1], [x2, one]]),
        (SuperDim(2, 1), [[one, zero, x1], [zero, one, zero], [x2, zero, x1 * x2]]),
        (SuperDim(2, 1), [[one, zero, zero], [zero, x1 * x2, x1], [zero, x2, one]]),
    ]
    for dim, rows in points:
        text = json.dumps(SuperMatrix(dim, rows, 2).to_json())
        for command, message in NOT_GL.items():
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run_cli([command, "-"], capsys) == (1, "", message), (rows, command)
