"""End-to-end command-line behavior on real files."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natforms
from natforms import verify
from natforms.cli import COMPUTE_TARGETS, main
from natforms.poly import parse
from natforms.tensor import dumps as tensor_dumps
from natforms.tensor import loads as tensor_loads

PAPER = "testdata/paper_connection.json"
FLAT = "testdata/flat_connection.json"
# stdout of `natforms verify all --format json` on the bundled connection
GOLDEN_ALL = "testdata/golden/verify_all.json"


def run(argv):
    return main(argv)


def test_compute_torsion_contains_expected_entry(tmp_path, capsys):
    out = tmp_path / "tor.json"
    assert run(["compute", "torsion", "--connection", PAPER, "--out", str(out)]) == 0
    field = tensor_loads(out.read_text())
    assert field.get((1, 2), (1,)) == parse("x3", 4)
    doc = json.loads(out.read_text())
    entry = next(e for e in doc["components"] if e["cov"] == [1, 2] and e["contra"] == [1])
    assert entry["poly"] == "x3"


def test_compute_curvature_flat_has_no_components(tmp_path):
    out = tmp_path / "r.json"
    assert run(["compute", "curvature", "--connection", FLAT, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["components"] == []
    assert doc["shape"] == {"p": 3, "q": 1, "n": 4}


# (base, pattern) of T1..T19, in manifest order
MANIFEST_RECIPES = [
    ("C0", "(ijk)-(jik)"), ("C0", "(jki)-(ikj)"), ("C0", "(kij)-(kji)"),
    ("C1", "(ijk)-(jik)"), ("C1", "(jki)-(ikj)"), ("C1", "(kij)-(kji)"),
    ("C2", "(ijk)-(jik)"), ("C2", "(jki)-(ikj)"), ("C2", "(kij)-(kji)"),
    ("C3", "(ijk)-(jik)"), ("C3", "(jki)-(ikj)"),
    ("D1", "(ijk)-(jik)"), ("D1", "(jki)-(ikj)"),
    ("D2", "(ijk)-(jik)"), ("D2", "(jki)-(ikj)"),
    ("D3", "(ijk)-(jik)"),
    ("D4", "(ijk)-(jik)"), ("D4", "(jki)-(ikj)"),
    ("D5", "(jki)-(ikj)"),
]


def test_compute_generators_writes_19_files_and_manifest(tmp_path):
    out_dir = tmp_path / "gens"
    assert run(["compute", "generators", "--connection", PAPER, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 19
    assert {e["label"] for e in manifest["entries"]} == {f"T{i}" for i in range(1, 20)}
    for entry in manifest["entries"]:
        assert (out_dir / entry["file"]).exists()
    assert manifest["entries"] == [
        {"label": f"T{i}", "file": f"T{i}.json", "base": base, "pattern": pattern}
        for i, (base, pattern) in enumerate(MANIFEST_RECIPES, start=1)
    ]


def test_rank_of_generator_files_is_19(tmp_path, capsys):
    out_dir = tmp_path / "gens"
    run(["compute", "generators", "--connection", PAPER, "--out", str(out_dir)])
    capsys.readouterr()
    paths = [str(out_dir / f"T{i}.json") for i in range(1, 20)]
    assert run(["rank", *paths]) == 0
    assert "rank 19" in capsys.readouterr().out


def test_rank_with_kernel_on_dependent_pair(tmp_path, capsys):
    out = tmp_path / "tor.json"
    run(["compute", "torsion", "--connection", PAPER, "--out", str(out)])
    doubled = tmp_path / "tor2.json"
    field = tensor_loads(out.read_text()).scale(2)
    from natforms.tensor import dumps

    doubled.write_text(dumps(field))
    capsys.readouterr()
    assert run(["rank", str(out), str(doubled), "--kernel", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1
    assert payload["kernel"] == [["2", "-1"]]


def test_rank_kernel_is_rechecked(tmp_path, wrong_null_vector):
    out = tmp_path / "tor.json"
    run(["compute", "torsion", "--connection", PAPER, "--out", str(out)])
    doubled = tmp_path / "tor2.json"
    doubled.write_text(tensor_dumps(tensor_loads(out.read_text()).scale(2)))
    with pytest.raises(AssertionError, match="kernel certificate"):
        run(["rank", str(out), str(doubled), "--kernel"])


def test_rank_requires_matching_shapes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["compute", "torsion", "--connection", PAPER, "--out", str(a)])
    run(["compute", "curvature", "--connection", PAPER, "--out", str(b)])
    assert run(["rank", str(a), str(b)]) == 2


def test_verify_lemma_default_connection(capsys):
    assert run(["verify", "lemma-3.1"]) == 0
    out = capsys.readouterr().out
    assert "claim lemma-3.1: PASS" in out
    assert "claim lemma-3.1-dropped-generator: PASS" in out


def test_verify_lemma_fails_on_flat(capsys):
    assert run(["verify", "lemma-3.1", "--connection", FLAT]) == 1
    out = capsys.readouterr().out
    assert "rank 0" in out
    assert "aggregate: FAIL" in out


def test_verify_bianchi_seeded(capsys):
    assert run(["verify", "bianchi", "--seed", "7", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "5 seeded connections" in out


def test_verify_all_defaults_pass(capsys):
    assert run(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "aggregate: PASS (9/9 claims)" in out


def test_verify_all_on_flat_fails(capsys):
    assert run(["verify", "all", "--connection", FLAT]) == 1
    assert "aggregate: FAIL" in capsys.readouterr().out


def test_verify_all_json_reports_are_byte_identical(capsys):
    assert run(["verify", "all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    with open(GOLDEN_ALL, encoding="utf-8") as handle:
        assert first == handle.read()


def golden_slices():
    """Each target's verdicts in the golden `verify all` report: the CLAIMS
    targets in registry order, then bianchi."""
    with open(GOLDEN_ALL, encoding="utf-8") as handle:
        golden = json.load(handle)
    slices, start = {}, 0
    for target, claims in verify.CLAIMS.items():
        slices[target] = golden[start : start + len(claims)]
        start += len(claims)
    slices["bianchi"] = golden[start:]
    return slices


@pytest.mark.parametrize("target", [*verify.CLAIMS, "bianchi"])
def test_each_target_reports_its_slice_of_the_golden_file(capsys, target):
    assert run(["verify", target, "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(golden_slices()[target], indent=2) + "\n"


def test_connection_from_stdin_is_digested_as_read(tmp_path):
    # the document is read once, so a pipe's bytes are the ones digested
    src = os.path.dirname(os.path.dirname(os.path.abspath(natforms.__file__)))
    with open(PAPER, "rb") as handle:
        document = handle.read()
    out_dir = tmp_path / "gens"
    out = subprocess.run(
        [sys.executable, "-m", "natforms", "compute", "generators"]
        + ["--connection", "/dev/stdin", "--out", str(out_dir)],
        input=document,
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    digest = hashlib.sha256(document).hexdigest()
    assert json.loads((out_dir / "manifest.json").read_text())["connection_digest"] == digest
    assert f"input digest sha256:{digest}".encode() in out.stderr


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    # `python -m natforms` needs no installed console script
    src = os.path.dirname(os.path.dirname(os.path.abspath(natforms.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "natforms", "verify", "lemma-3.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert "claim lemma-3.5: PASS" in out.stdout


def test_verify_schemes_target(capsys):
    assert run(["verify", "schemes"]) == 0
    assert "claim schemes: PASS" in capsys.readouterr().out


def test_verify_json_format_is_parseable(capsys):
    assert run(["verify", "lemma-3.4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["claim_id"] == "lemma-3.4"
    assert payload[0]["pass"] is True


def test_verify_rejects_small_dimension(tmp_path, capsys):
    small = tmp_path / "n3.json"
    small.write_text(json.dumps({"dim": 3, "christoffel": []}))
    assert run(["verify", "thm-3.5", "--connection", str(small)]) == 2
    assert "dimension >= 4" in capsys.readouterr().err


def test_compute_rejects_duplicate_entries(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 4,
                "christoffel": [
                    {"upper": 1, "lower": [1, 2], "poly": "x3"},
                    {"upper": 1, "lower": [1, 2], "poly": "x4"},
                ],
            }
        )
    )
    out = tmp_path / "out.json"
    assert run(["compute", "torsion", "--connection", str(bad), "--out", str(out)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_unknown_target_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["verify", "nonsense"])
    assert err.value.code == 2


def test_compute_normal0_default_connection(tmp_path):
    out = tmp_path / "n0.json"
    assert run(["compute", "normal0", "--out", str(out)]) == 0
    field = tensor_loads(out.read_text())
    assert field.get((1, 2), (1,)) == parse("1/2*x3", 4)


# a torsionful connection on R^3, below the claims' dimension 4
DIM3 = {
    "dim": 3,
    "christoffel": [
        {"upper": 1, "lower": [1, 2], "poly": "x3"},
        {"upper": 3, "lower": [2, 3], "poly": "x1*x2"},
        {"upper": 2, "lower": [3, 1], "poly": "x2^2 - x3"},
    ],
}


@pytest.mark.parametrize("what", list(COMPUTE_TARGETS))
def test_compute_works_below_dimension_4(what, tmp_path):
    # the dimension guard belongs to the claims, not to the shared derivation
    conn_path = tmp_path / "dim3.json"
    conn_path.write_text(json.dumps(DIM3))
    out = tmp_path / what
    assert run(["compute", what, "--connection", str(conn_path), "--out", str(out)]) == 0
    if what == "generators":
        labels = sorted(name for name in os.listdir(out) if name != "manifest.json")
        assert labels == sorted(f"T{i}.json" for i in range(1, 20))
        assert tensor_loads((out / "T1.json").read_text()).shape.n == 3
    else:
        assert tensor_loads(out.read_text()).shape.n == 3


def test_compute_dR_is_zero_everywhere(tmp_path):
    out = tmp_path / "dr.json"
    assert run(["compute", "dR", "--connection", PAPER, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["components"] == []
    assert doc["shape"] == {"p": 4, "q": 1, "n": 4}


GOOD_ENTRY = {"upper": 1, "lower": [1, 2], "poly": "x3"}


@pytest.mark.parametrize(
    "document, message",
    [
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, lower="12")]}, "lower must be a list"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, lower=[1, 2.0])]}, "lower must be an integer"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, upper=1.7)]}, "upper must be an integer"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, upper="1")]}, "upper must be an integer"),
        ({"dim": True, "christoffel": []}, "dim must be an integer"),
        ({"dim": "4", "christoffel": []}, "dim must be an integer"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly=5)]}, "poly must be a string"),
        ({"dim": 4, "christoffel": [{"upper": 1, "poly": "x3"}]}, "malformed Christoffel entry"),
        ({"dim": 4, "christoffel": {"upper": 1}}, "christoffel must be a list"),
        ([4], "malformed connection document"),
        ({"dim": 100000000000, "christoffel": []}, "dimension out of supported range"),
        ({"dim": 9, "christoffel": [GOOD_ENTRY]}, "dimension out of supported range"),
        (
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly="*".join(["(x1+x2+x3+x4)"] * 40))]},
            "term pairs",
        ),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, upper=5)]}, "(5, 1, 2) out of range 1..4"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, upper=0)]}, "(0, 1, 2) out of range 1..4"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, lower=[1, 5])]}, "(1, 1, 5) out of range 1..4"),
        ({"dim": 4, "christoffel": [dict(GOOD_ENTRY, lower=[-1, 2])]}, "(1, -1, 2) out of range 1..4"),
        (
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, lower=[1, 2, 3])]},
            "lower index list must have 2 entries",
        ),
        (
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly="x1 + " + "7" * 5000)]},
            "invalid polynomial for upper=1, lower=[1, 2]: numeral of 5000 digits is too long "
            "(at position 5)",
        ),
        (
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly="x\u0663")]},
            "invalid polynomial for upper=1, lower=[1, 2]: unexpected character 'x' (at position 0)",
        ),
        (
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly="x2^2147483648")]},
            "invalid polynomial for upper=1, lower=[1, 2]: exponent 2147483648 is not below "
            "the bound 2^31 = 2147483648 (at position 3)",
        ),
    ],
)
def test_connection_document_type_errors_exit_2(tmp_path, capsys, document, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    out = tmp_path / "out.json"
    assert run(["compute", "torsion", "--connection", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_curvature_product_past_the_exponent_bound_exits_2(tmp_path, capsys):
    # Gamma^2_{21} Gamma^1_{12} is a term of R^1_{121}: x1^(2^30) * x1^(2^30)
    half = "x1^1073741824"
    entries = [
        {"upper": 1, "lower": [1, 2], "poly": half},
        {"upper": 2, "lower": [2, 1], "poly": half},
    ]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 4, "christoffel": entries}))
    out = tmp_path / "out.json"
    assert run(["compute", "torsion", "--connection", str(doc), "--out", str(out)]) == 0
    assert run(["compute", "curvature", "--connection", str(doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: a product has an exponent not below the bound 2^31" in err
    assert "Traceback" not in err


GOOD_COMPONENT = {"cov": [1, 2], "contra": [3], "poly": "x1"}


def tensor_doc(components, shape=None):
    return {"shape": shape or {"p": 2, "q": 1, "n": 4}, "components": components}


@pytest.mark.parametrize(
    "document, message",
    [
        (tensor_doc([dict(GOOD_COMPONENT, poly=5)]), "poly must be a string"),
        (tensor_doc([{"contra": [3], "poly": "x1"}]), "malformed component entry"),
        (tensor_doc([dict(GOOD_COMPONENT, cov="12")]), "cov must be a list"),
        (
            tensor_doc([{"cov": "1", "contra": [], "poly": "x1"}], {"p": 1, "q": 0, "n": 4}),
            "cov must be a list",
        ),
        (tensor_doc([dict(GOOD_COMPONENT, contra=[True])]), "contra must be an integer"),
        (tensor_doc([], {"p": 2, "q": 1, "n": 4.0}), "shape n must be an integer"),
        (tensor_doc(5), "components must be a list"),
        (tensor_doc([], {"p": 20, "q": 0, "n": 10}), "tensor documents need n <= 8"),
        (tensor_doc([], {"p": 10**12, "q": 1, "n": 4}), "p + q <= 6"),
        (tensor_doc([GOOD_COMPONENT], {"p": 2, "q": 1, "n": 9}), "got p=2, q=1, n=9"),
        (tensor_doc([], {"p": 4, "q": 3, "n": 2}), "got p=4, q=3, n=2"),
    ],
)
def test_tensor_document_type_errors_exit_2(tmp_path, capsys, document, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert run(["rank", str(bad)]) == 2
    assert message in capsys.readouterr().err


# 101 levels of unary minus or of parentheses, one past the parser's limit
TOO_DEEP = ["-" * 3000 + "x1", "(" * 3000 + "x1" + ")" * 3000, "-(" * 50 + "-x1" + ")" * 50]


@pytest.mark.parametrize("text", TOO_DEEP, ids=["minus", "parentheses", "mixed"])
def test_deeply_nested_connection_text_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 4, "christoffel": [dict(GOOD_ENTRY, poly=text)]}))
    assert run(["verify", "lemma-3.5", "--connection", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "nesting deeper than 100 (at position 100)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", TOO_DEEP, ids=["minus", "parentheses", "mixed"])
def test_deeply_nested_tensor_text_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tensor_doc([dict(GOOD_COMPONENT, poly=text)])))
    assert run(["rank", str(bad)]) == 2
    assert "nesting deeper than 100 (at position 100)" in capsys.readouterr().err


def test_json_nested_past_the_decoder_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100000)
    assert run(["verify", "lemma-3.4", "--connection", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "connection document nests deeper than the JSON decoder can follow" in captured.err
    assert captured.out == ""
    assert run(["rank", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "tensor document nests deeper than the JSON decoder can follow" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (
            ["verify", "lemma-3.5", "--connection"],
            '{"dim": 4, "christoffel": [{"upper": 1, "lower": [1, 2], "poly": "x3"}], "dim": 5}',
            "dim",
        ),
        (
            ["verify", "lemma-3.5", "--connection"],
            '{"dim": 4, "christoffel": [{"upper": 1, "lower": [1, 2], "upper": 2, "poly": "x3"}]}',
            "upper",
        ),
        (
            ["rank"],
            '{"shape": {"p": 2, "q": 1, "n": 4}, "components": [],'
            ' "shape": {"p": 1, "q": 1, "n": 4}}',
            "shape",
        ),
    ],
    ids=["connection", "christoffel-entry", "tensor"],
)
def test_repeated_json_key_exits_2(tmp_path, capsys, argv, text, key):
    # the decoder would keep the last of two equal keys without a word
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run([*argv, str(bad)]) == 2
    captured = capsys.readouterr()
    assert f"JSON object repeats the key {key!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, document, key",
    [
        (
            ["compute", "torsion", "--out", "out.json", "--connection"],
            {
                "dim": 4,
                "christoffel": [],
                "Christoffel": [{"upper": 1, "lower": [1, 2], "poly": "x3"}],
            },
            "Christoffel",
        ),
        (
            ["verify", "lemma-3.5", "--connection"],
            {"dim": 4, "christoffel": [dict(GOOD_ENTRY, polly="x3")]},
            "polly",
        ),
        (
            ["rank"],
            dict(
                tensor_doc([dict(GOOD_COMPONENT, coef=2)], {"p": 2, "q": 1, "n": 4, "r": 0}),
                note="x",
            ),
            "note",
        ),
        (["rank"], tensor_doc([], {"p": 2, "q": 1, "n": 4, "r": 0}), "r"),
        (["rank"], tensor_doc([dict(GOOD_COMPONENT, coef=2)]), "coef"),
    ],
    ids=["connection", "christoffel-entry", "tensor", "shape", "component"],
)
def test_undefined_document_key_exits_2(tmp_path, monkeypatch, capsys, argv, document, key):
    # a misspelt key would otherwise be dropped without a word
    monkeypatch.chdir(tmp_path)
    with open("bad.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    assert run([*argv, "bad.json"]) == 2
    captured = capsys.readouterr()
    assert f"undefined key {key!r}" in captured.err
    assert captured.out == ""
    assert not os.path.exists("out.json")


def test_tensor_polynomial_error_names_its_file_and_component(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tensor_doc([GOOD_COMPONENT])))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tensor_doc([dict(GOOD_COMPONENT, poly="x1 @ 2")])))
    assert run(["rank", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: {bad}: invalid polynomial for cov=[1, 2], contra=[3]: "
        "unexpected character '@' (at position 3)\n"
    )
    assert captured.out == ""


def test_nesting_100_deep_still_parses(tmp_path, capsys):
    assert parse("-" * 100 + "x1", 4) == parse("x1", 4)
    assert parse("(" * 100 + "x1" + ")" * 100, 4) == parse("x1", 4)
    assert parse("-(" * 50 + "x1" + ")" * 50, 4) == parse("x1", 4)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tensor_doc([dict(GOOD_COMPONENT, poly="-" * 100 + "x1")])))
    assert run(["rank", str(good)]) == 0
    assert "rank 1" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_count_below_one(capsys, count):
    # a target that reads no count refuses a bad one too
    for target in ("bianchi", "lemma-3.5"):
        assert run(["verify", target, "--count", count]) == 2
        captured = capsys.readouterr()
        assert "--count must be at least 1" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("target", ["bianchi", "all", "lemma-3.5"])
def test_verify_rejects_count_above_ceiling_before_drawing(monkeypatch, capsys, target):
    def no_draws(spec, count):
        raise AssertionError(f"drew {count} connections")

    monkeypatch.setattr(verify, "random_connections", no_draws)
    assert run(["verify", target, "--count", str(verify.MAX_COUNT + 1)]) == 2
    captured = capsys.readouterr()
    assert f"--count must be at most {verify.MAX_COUNT}" in captured.err
    assert captured.out == ""
    with pytest.raises(ValueError, match="at most"):
        verify.verify_bianchi(verify.RandomConnectionSpec(), verify.MAX_COUNT + 1)


# -- malformed documents, drawn at random ----------------------------------------

# one strategy, so that a field is junk about as often as it is well formed
JUNK = st.sampled_from(
    [None, True, False, -1, 0, 5, 9, 10**12, -(10**12), 1.5, -0.0, "", "2", "x1", [], {}, [2]]
)
INDEX = st.one_of(st.integers(1, 4), JUNK)
INDEX_LIST = st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=3), JUNK)
POLY_TEXT = st.one_of(
    st.sampled_from(["x1", "x3*x4 - 1/2", "x1^99999999", "x9", "x1^", "(x2", "1/0", ""]),
    st.text(alphabet="x1234^*+-/() ", max_size=8),
    JUNK,
)


def documents(fields):
    """Objects with all of the given fields or with some of them."""
    return st.one_of(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


CONNECTION_DOCUMENT = st.one_of(
    documents(
        {
            "dim": st.one_of(st.integers(2, 4), JUNK),
            "christoffel": st.one_of(
                st.lists(
                    documents({"upper": INDEX, "lower": INDEX_LIST, "poly": POLY_TEXT}),
                    max_size=3,
                ),
                JUNK,
            ),
        }
    ),
    JUNK,
)
# slot counts stay small enough that a well-formed shape is cheap to build
TENSOR_DOCUMENT = st.one_of(
    documents(
        {
            "shape": st.one_of(
                documents(
                    {
                        "p": st.one_of(st.integers(0, 3), JUNK),
                        "q": st.one_of(st.integers(0, 2), JUNK),
                        "n": st.one_of(st.integers(1, 4), JUNK),
                    }
                ),
                JUNK,
            ),
            "components": st.one_of(
                st.lists(
                    documents({"cov": INDEX_LIST, "contra": INDEX_LIST, "poly": POLY_TEXT}),
                    max_size=3,
                ),
                JUNK,
            ),
        }
    ),
    JUNK,
)


def run_on_document(document, argv):
    """Exit status of the CLI with the document's file path appended."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return run([*argv(tmp), path])


@given(CONNECTION_DOCUMENT)
@settings(max_examples=100, deadline=None)
def test_random_connection_documents_exit_cleanly(document):
    code = run_on_document(
        document,
        lambda tmp: ["compute", "torsion", "--out", os.path.join(tmp, "out.json"), "--connection"],
    )
    assert code in (0, 1, 2)


@given(TENSOR_DOCUMENT)
@settings(max_examples=100, deadline=None)
def test_random_tensor_documents_exit_cleanly(document):
    assert run_on_document(document, lambda tmp: ["rank"]) in (0, 1, 2)
