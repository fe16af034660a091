import argparse
import json
import os
import sys
import time
from fractions import Fraction

import pytest

from multiterm.cli import _decimal_string, main
from multiterm.errors import ConfigurationError
from multiterm.scenarios import build_scenario, load_scenario, scenario_names


def run(argv):
    return main(argv)


def test_scenario_list_names():
    names = scenario_names()
    for expected in ("slepian-wolf", "wyner-ziv-binary", "berger-tung-binary",
                     "mdc-two-descriptions", "heegard-berger-two-decoders",
                     "jb-mixed-lossless-lossy"):
        assert expected in names


def test_unknown_scenario_exit_code():
    assert run(["region", "no-such-scenario"]) == 2


def test_simulate_without_distortions_needs_delta(capsys):
    for name in ("example1-dsc2", "example2-dsc3", "example3-mdc2", "example5-dsi2"):
        assert run(["simulate", name, "--n", "2", "--trials", "5"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and name in err and "--delta" in err


def test_builtin_scenario_topologies_match_their_problems():
    sw = build_scenario("slepian-wolf")
    assert sw.config.sharing == ((1,), (2,)) and sw.config.decoders == (1,)
    assert sw.config.codewords_to[1] == (1, 2)
    assert set(sw.config.lossless) == {1, 2}

    mdc = build_scenario("mdc-two-descriptions")
    assert mdc.config.sharing == ((1, 2),)
    assert set(mdc.config.decoders) == {1, 2, 12}
    assert mdc.config.codewords_to == {1: (1,), 2: (2,), 12: (1, 2)}

    hb = build_scenario("heegard-berger-two-decoders")
    assert hb.config.encoders == (1,)
    assert hb.config.codewords_to == {1: (1,), 2: (1,)}
    assert hb.config.side_info[1] != hb.config.side_info[2]

    jb = build_scenario("jb-mixed-lossless-lossy")
    assert jb.config.lossless == (1,) and len(jb.config.decoders) == 1


def test_simulate_sweep_emits_one_row_per_block_length(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert run(["simulate", "wyner-ziv-binary", "--n", "1,2,3",
                "--trials", "50", "--seed", "2", "--out", out]) == 0
    rows = open(out).read().strip().splitlines()
    assert len(rows) == 4  # header + three block lengths
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "2", "3"]


def _one_cell_scenario(run_section) -> dict:
    """A scenario file with one rate-1 encoder, one hamming
    reproduction of X1, and the given run section."""
    return {
        "name": "defaults",
        "topology": {
            "encoders": [1], "sharing": [[1]], "decoders": [1],
            "codewords_to": {"1": [1]}, "reproductions": {"1": [1]},
            "side_info": {"1": None},
            "distortions": {"1": {"kind": "hamming", "source": "X1"}},
        },
        "source": {"variables": [["X1", [0, 1]]],
                   "table": [[[0], "1/2"], [[1], "1/2"]]},
        "channels": [{"cell": [1], "input": "X1", "outputs": [["W1", [0, 1]]],
                      "rows": [[[0], [[[0], "1"]]], [[1], [[[1], "1"]]]]}],
        "reproducers": {"1": {"args": ["W1"], "identity": True,
                              "alphabet": [0, 1]}},
        "code": {"rates": {"1": 1.0}},
        "run": run_section,
    }


def test_scenario_run_section_supplies_defaults(tmp_path):
    data = _one_cell_scenario({"n": [1, 2], "trials": 40, "seed": 9, "D": {"1": "0.1"}})
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(data))
    out = str(tmp_path / "defaults.csv")
    assert run(["simulate", str(path), "--out", out]) == 0
    rows = open(out).read().strip().splitlines()
    assert len(rows) == 3
    header = rows[0].split(",")
    fields = rows[1].split(",")
    assert fields[header.index("trials")] == "40"  # from the run section
    assert fields[header.index("seed")] == "9"     # from the run section


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["simulate", "exact"])
def test_scenario_without_a_distortion_bound_is_a_config_error(tmp_path, capsys, flags):
    """A scenario with distortions but no run.D bound for one of them exits
    2 and names the reproduction, for both estimators."""
    path = tmp_path / "no-bound.json"
    path.write_text(json.dumps(_one_cell_scenario({"n": [1], "trials": 10, "seed": 9})))
    assert run(["simulate", str(path)] + flags) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "no distortion bound D for reproduction 1" in err
    assert "Traceback" not in err


def test_region_to_file_and_sidecar(tmp_path):
    out = str(tmp_path / "region.txt")
    assert run(["region", "slepian-wolf", "--definition", "dsc-crng",
                "--eliminate-aux", "--out", out]) == 0
    text = open(out).read()
    assert "R_1 + R_2 >=" in text
    binding = open(out + ".binding.json").read()
    assert "Hsup" in binding
    assert run(["region", "slepian-wolf", "--definition", "dsc-crng",
                "--precision-bits", "20", "--out", out]) == 0
    records = [json.loads(line) for line in open(out + ".manifest.jsonl")]
    assert [r["command"] for r in records] == ["region", "region"]
    # two runs that emit different systems leave different records
    assert [(r["precision_bits"], r["eliminate_aux"]) for r in records] == [
        (40, True), (20, False)]


@pytest.mark.parametrize("bits", ["-1", "1075"])
def test_region_refuses_precision_bits_out_of_range(capsys, bits):
    """A negative precision raised a negative shift count, and one past
    about 1020 overflowed a float product; both now exit 2 by name."""
    assert run(["region", "slepian-wolf", "--precision-bits", bits]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "got %s" % bits in err
    assert "Traceback" not in err


def test_region_at_1074_precision_bits_is_exact(capsys):
    """Every double is a multiple of 2^-1074, so binding at 1074 bits keeps
    each entropy exactly, as 200 bits already do for these."""
    outputs = []
    for bits in ("200", "1074"):
        assert run(["region", "slepian-wolf", "--definition", "dsc-crng",
                    "--eliminate-aux", "--precision-bits", bits]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "R_1 + R_2 >=" in outputs[0]


def test_region_golden_example1(tmp_path):
    out = str(tmp_path / "ex1.txt")
    assert run(["region", "example1-dsc2", "--definition", "dsc-crng",
                "--eliminate-aux", "--out", out]) == 0
    golden = open(os.path.join(os.path.dirname(__file__),
                               "golden", "example1_dsc2.txt")).read()
    assert open(out).read() == golden


def test_region_jb_definition(tmp_path):
    out = str(tmp_path / "jb.txt")
    assert run(["region", "jb-mixed-lossless-lossy", "--definition", "jb-crng",
                "--eliminate-aux", "--out", out]) == 0
    text = open(out).read()
    assert "R_1 + R_2 >=" in text


def test_jb_lossless_family_matches_sw():
    """All-lossless Jana-Blahut reduces to the Slepian-Wolf family."""
    from multiterm.network import build_joint
    from multiterm.regions import JB_CRNG, RegionSpec, binding_from_pmf, build_system
    sc = build_scenario("slepian-wolf")
    joint = build_joint(sc.config, sc.source, sc.channels)
    jb = build_system(RegionSpec(JB_CRNG, sc.config,
                                 binding_from_pmf(JB_CRNG, sc.config, joint).values))
    assert set(jb.vars) == {"R_1", "R_2"}  # no auxiliaries survive all-lossless
    assert len(jb.ineqs) == 3


def test_simulate_csv_and_determinism(tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    args = ["simulate", "slepian-wolf", "--n", "2", "--trials", "200", "--seed", "5"]
    assert run(args + ["--out", out_a]) == 0
    assert run(args + ["--out", out_b]) == 0
    assert open(out_a).read() == open(out_b).read()
    header = open(out_a).read().splitlines()[0]
    assert header.startswith("scenario,n,R_1,R_2,r_1,r_2,delta,trials,mismatch_freq")
    assert header.endswith("ci_low,ci_high,seed,enc_abort_freq,dec_abort_freq")


def test_simulate_exact_mode(tmp_path):
    out = str(tmp_path / "exact.csv")
    assert run(["simulate", "slepian-wolf", "--n", "2", "--exact",
                "--seed", "3", "--out", out]) == 0
    rows = open(out).read().splitlines()
    assert len(rows) == 2
    mismatch = rows[1].split(",")[8]
    # exact decimal string parses back to a rational
    assert float(mismatch) >= 0


def test_simulate_exact_restores_int_digit_limit(capsys):
    """The exact values may have more digits than the interpreter's int-to-str
    limit allows; it is lifted while they are formatted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(["simulate", "slepian-wolf", "--n", "6", "--exact", "--seed", "9"]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert max(len(field) for field in fields) > 640
    for field in fields[8:11]:
        assert 0 <= Fraction(field) <= 1


def test_simulate_exact_budget_exit_code():
    assert run(["simulate", "berger-tung-binary", "--n", "13", "--exact"]) == 3


def test_simulate_class_index_budget_refuses_early(capsys):
    # the slepian-wolf decoder index would scan 4^11 joint W-blocks
    t0 = time.perf_counter()
    assert run(["simulate", "slepian-wolf", "--n", "11", "--trials", "10"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "budget exceeded" in err and "4 letters" in err and "n=11" in err
    assert str(4 ** 11) in err


def test_simulate_refuses_the_decoder_index_before_any_encoder_scan(capsys):
    # at n = 20 each encoder index holds 2^20 blocks, within the budget, and
    # the decoder index 4^20; the decoder index is refused before any hash
    # is sampled
    t0 = time.perf_counter()
    assert run(["simulate", "slepian-wolf", "--n", "20", "--trials", "10"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "class index of encoders (1, 2) needs 4 letters ^ n=20" in err
    assert str(4 ** 20) in err


def test_env_seed_override(tmp_path, monkeypatch):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    monkeypatch.setenv("MULTITERM_SEED", "99")
    run(["simulate", "slepian-wolf", "--n", "2", "--trials", "100",
         "--seed", "1", "--out", out_a])
    monkeypatch.delenv("MULTITERM_SEED")
    run(["simulate", "slepian-wolf", "--n", "2", "--trials", "100",
         "--seed", "99", "--out", out_b])
    assert open(out_a).read() == open(out_b).read()


def test_verify_suite_exit_codes(tmp_path):
    out = str(tmp_path / "verify.txt")
    assert run(["verify", "--suite", "decision", "--out", out]) == 0
    assert "PASS" in open(out).read()
    report = json.loads(open(out + ".json").read())
    assert report["all_passed"]


def test_decimal_string_exactness():
    assert _decimal_string(Fraction(1, 4)) == "0.25"
    assert _decimal_string(Fraction(3, 8)) == "0.375"
    assert _decimal_string(Fraction(7, 20)) == "0.35"
    assert _decimal_string(Fraction(-1, 2)) == "-0.5"
    assert _decimal_string(Fraction(5)) == "5"
    # non-terminating expansions stay exact as fractions
    assert _decimal_string(Fraction(1, 3)) == "1/3"


def test_scenario_json_round_trip(tmp_path):
    data = {
        "name": "tiny",
        "topology": {
            "encoders": [1],
            "sharing": [[1]],
            "decoders": [1],
            "codewords_to": {"1": [1]},
            "reproductions": {"1": [1]},
            "side_info": {"1": None},
            "distortions": {"1": {"kind": "hamming", "source": "X1"}},
        },
        "source": {
            "variables": [["X1", [0, 1]]],
            "table": [[[0], "1/2"], [[1], "1/2"]],
        },
        "channels": [
            {"cell": [1], "input": "X1", "outputs": [["W1", [0, 1]]],
             "rows": [[[0], [[[0], "9/10"], [[1], "1/10"]]],
                      [[1], [[[0], "1/10"], [[1], "9/10"]]]]}
        ],
        "reproducers": {"1": {"args": ["W1"], "identity": True,
                              "alphabet": [0, 1]}},
        "code": {"rates": {"1": 1.0}, "aux_rates": {"1": 0.0}},
        "run": {"D": {"1": "0.2"}},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    scenario = load_scenario(str(path))
    assert scenario.name == "tiny"
    code = scenario.make_code(2, seed=0)
    from multiterm.codec import exact_error
    result = exact_error(code, 0.01, scenario.default_D)
    assert 0 <= float(result.mismatch) <= 1


def test_scenario_file_schema_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    assert run(["region", str(path)]) == 2


def test_directory_path_is_a_config_error(tmp_path):
    assert run(["region", str(tmp_path)]) == 2


def test_scenario_with_table_reproducer_and_block_distortion(tmp_path):
    data = {
        "name": "xor-side-info",
        "topology": {
            "encoders": [1], "sharing": [[1]], "decoders": [1],
            "codewords_to": {"1": [1]}, "reproductions": {"1": [1]},
            "side_info": {"1": "Y"},
            "distortions": {"1": {"kind": "block-mismatch", "source": "X1"}},
        },
        "source": {"variables": [["X1", [0, 1]], ["Y", [0, 1]]],
                   "table": [[[0, 0], "2/5"], [[0, 1], "1/10"],
                             [[1, 0], "1/10"], [[1, 1], "2/5"]]},
        "channels": [{"cell": [1], "input": "X1", "outputs": [["W1", [0, 1]]],
                      "rows": [[[0], [[[0], "1"]]], [[1], [[[1], "1"]]]]}],
        "reproducers": {"1": {"args": ["W1", "Y"], "alphabet": [0, 1],
                              "table": [[[0, 0], 0], [[0, 1], 0],
                                        [[1, 0], 1], [[1, 1], 1]]}},
        "code": {"rates": {"1": 1.0}},
        "run": {"D": {"1": 0}},
    }
    path = tmp_path / "xor.json"
    path.write_text(json.dumps(data))
    scenario = load_scenario(str(path))
    code = scenario.make_code(2, seed=4)
    from multiterm.codec import exact_error
    result = exact_error(code, 0.5, scenario.default_D)
    assert 0 <= float(result.mismatch) <= 1


def tiny_scenario_data():
    """A one-encoder scenario file: a uniform bit over a binary symmetric channel."""
    return {
        "name": "tiny",
        "topology": {
            "encoders": [1], "sharing": [[1]], "decoders": [1],
            "codewords_to": {"1": [1]}, "reproductions": {"1": [1]},
            "side_info": {"1": None},
            "distortions": {"1": {"kind": "hamming", "source": "X1"}},
        },
        "source": {"variables": [["X1", [0, 1]]],
                   "table": [[[0], "1/2"], [[1], "1/2"]]},
        "channels": [{"cell": [1], "input": "X1", "outputs": [["W1", [0, 1]]],
                      "rows": [[[0], [[[0], "9/10"], [[1], "1/10"]]],
                               [[1], [[[0], "1/10"], [[1], "9/10"]]]]}],
        "reproducers": {"1": {"args": ["W1"], "identity": True, "alphabet": [0, 1]}},
        "code": {"rates": {"1": 1.0}},
        "run": {"n": [1], "trials": 5, "D": {"1": "0.2"}},
    }


def test_scenario_channel_row_with_a_negative_entry_exits_2(tmp_path, capsys):
    """A channel row of mass one with a negative entry is not a pmf: `region`
    and `simulate` both refuse it, naming the row."""
    data = tiny_scenario_data()
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(data))
    assert run(["region", str(path)]) == 0
    capsys.readouterr()
    data["channels"][0]["rows"][0] = [[0], [[[0], "3/2"], [[1], "-1/2"]]]
    path.write_text(json.dumps(data))
    for command in ("region", "simulate"):
        assert run([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "channel row (0,) has negative probability -1/2" in err
        assert "Traceback" not in err


def _side_info_scenario(side_info, args, table) -> dict:
    """The tiny scenario over a source (X1, Y1, Y2), Y1 and Y2 copies of X1
    through BSC(1/10) each, with decoder side information `side_info` and
    a reproducer reading `args` through `table`."""
    data = tiny_scenario_data()
    data["topology"]["side_info"] = {"1": side_info}
    flip = {0: 9, 1: 1}
    data["source"] = {
        "variables": [["X1", [0, 1]], ["Y1", [0, 1]], ["Y2", [0, 1]]],
        "table": [[[x, y1, y2], "%d/200" % (flip[x ^ y1] * flip[x ^ y2])]
                  for x in (0, 1) for y1 in (0, 1) for y2 in (0, 1)]}
    data["reproducers"] = {"1": {"args": args, "alphabet": [0, 1], "table": table}}
    return data


_EVERY_PAIR = [[[w, y], w] for w in (0, 1) for y in (0, 1)]


@pytest.mark.parametrize("side_info, args, table, message", [
    (None, ["W1"], [[[0], 0]], "reproducer 1 has no output for (1,)"),
    (None, ["W1", "Y1"], _EVERY_PAIR, "reproducer 1 reads 'Y1'; decoder 1 reads only 'W1'"),
    ("Y1", ["W1", "Y2"], _EVERY_PAIR, "reproducer 1 reads 'Y2'; decoder 1 reads only 'W1', 'Y1'"),
], ids=["missing-tuple", "no-side-info", "other-side-info"])
def test_reproducer_outside_its_decoder_exits_2(tmp_path, capsys, side_info, args, table,
                                                 message):
    """A reproducer must read only its decoder's codewords and side
    information, and its table must hold every tuple of positive mass;
    `simulate` refuses one that does not, naming it, under both estimators."""
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(_side_info_scenario(side_info, args, table)))
    for flags in ([], ["--exact"]):
        assert run(["simulate", str(path), "--n", "2"] + flags) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_reproducer_reading_its_side_information_runs(tmp_path):
    """The valid neighbour of the refused reproducers: W1 and the decoder's
    own side information Y1, every pair in the table."""
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(_side_info_scenario("Y1", ["W1", "Y1"], _EVERY_PAIR)))
    assert run(["simulate", str(path), "--n", "2"]) == 0
    assert run(["simulate", str(path), "--n", "2", "--exact"]) == 0


@pytest.mark.parametrize("kind", ["linear", "sparse-linear"])
def test_scenario_code_kinds_build_hashes_of_that_kind(tmp_path, kind):
    """At power-of-two sizes every hash of the code is of the kind `code.kinds`
    names, and `simulate --exact` runs on it."""
    data = tiny_scenario_data()
    data["code"] = {"kinds": {"1": kind}, "rates": {"1": 0.5}, "aux_rates": {"1": 0.5}}
    path = tmp_path / "kinds.json"
    path.write_text(json.dumps(data))
    code = load_scenario(str(path)).make_code(4, seed=1)
    assert code.f[1].kind == code.g[1].kind == kind
    assert (code.f[1].image_size, code.g[1].image_size) == (4, 4)
    assert run(["simulate", str(path), "--n", "4", "--exact",
                "--out", str(tmp_path / "kinds.csv")]) == 0


def test_sparse_linear_encoder_at_aux_rate_zero(tmp_path):
    """A sparse-linear `f` at aux rate 0 is the constant function, and
    `simulate --exact` runs on it."""
    data = tiny_scenario_data()
    data["code"] = {"kinds": {"1": "sparse-linear"}, "rates": {"1": 0.5},
                    "aux_rates": {"1": 0.0}}
    path = tmp_path / "aux0.json"
    path.write_text(json.dumps(data))
    code = load_scenario(str(path)).make_code(4, seed=1)
    assert code.f[1].kind == "sparse-linear" and code.f[1].image_size == 1
    assert run(["simulate", str(path), "--n", "4", "--exact",
                "--out", str(tmp_path / "aux0.csv")]) == 0


@pytest.mark.parametrize("code, named", [
    ({"kinds": {"1": "linear"}, "rates": {"1": 0.75}}, "image size 3 is not a power of q=2"),
    ({"kinds": {"1": "sparse-linear"}, "q": 3}, "domain size 4 is not a power of q=3"),
])
def test_scenario_code_kinds_refuse_sizes_outside_their_family(tmp_path, capsys, code, named):
    """A linear kind at a size that is not a power of q exits 2 naming the
    size; it is never realized by another hash family."""
    data = tiny_scenario_data()
    data["code"] = code
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data))
    assert run(["simulate", str(path), "--n", "2", "--exact"]) == 2
    assert named in capsys.readouterr().err


def test_builtin_scenario_with_linear_kinds_refuses_a_non_power_rate():
    scenario = build_scenario("slepian-wolf")
    scenario.code_kinds = {1: "linear", 2: "linear"}
    assert scenario.make_code(4).g[2].kind == "linear"   # 2^(0.75*4) = 8
    with pytest.raises(ConfigurationError, match="image size 23 is not a power of q=2"):
        scenario.make_code(6)                             # round(2^4.5) = 23


@pytest.mark.parametrize("exact", [False, True])
def test_simulate_reports_encoder_aborts(tmp_path, exact):
    """With W = X and |C| = 2^n, the encoder aborts unless f(x) = c: the CSV
    reports the abort frequency in its own column."""
    data = tiny_scenario_data()
    data["channels"][0]["rows"] = [[[0], [[[0], "1"]]], [[1], [[[1], "1"]]]]
    data["code"]["aux_rates"] = {"1": 1.0}
    path = tmp_path / "aborting.json"
    path.write_text(json.dumps(data))
    out = str(tmp_path / "aborting.csv")
    args = ["simulate", str(path), "--n", "3", "--trials", "200", "--seed", "3", "--out", out]
    assert run(args + (["--exact"] if exact else [])) == 0
    header, row = open(out).read().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert 0 < Fraction(fields["enc_abort_freq"]) < 1
    assert Fraction(fields["dec_abort_freq"]) == 0
    # an abort counts as a mismatch
    assert Fraction(fields["mismatch_freq"]) >= Fraction(fields["enc_abort_freq"])


def _config_hash(tmp_path, name, data):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(data))
    out = str(tmp_path / (name + ".csv"))
    assert run(["simulate", str(path), "--out", out]) == 0
    return json.loads(open(out + ".manifest.jsonl").read().splitlines()[-1])["config_hash"]


def test_config_hash_covers_the_whole_scenario(tmp_path):
    base = tiny_scenario_data()
    row = json.loads(json.dumps(base))
    row["channels"][0]["rows"][0] = [[0], [[[0], "4/5"], [[1], "1/5"]]]
    rates = json.loads(json.dumps(base))
    rates["code"]["rates"] = {"1": 0.5}
    kind = json.loads(json.dumps(base))
    kind["topology"]["distortions"]["1"]["kind"] = "block-mismatch"
    first = _config_hash(tmp_path, "base", base)
    assert _config_hash(tmp_path, "base", base) == first   # same file, second run
    hashes = [first] + [_config_hash(tmp_path, name, data) for name, data in
                        (("row", row), ("rates", rates), ("kind", kind))]
    assert len(set(hashes)) == 4


@pytest.mark.parametrize("flags, run_section, bad", [
    (["--n", "2,x"], {}, "--n: 'x'"),
    (["--n", "0"], {}, "--n: '0'"),
    (["--trials", "0"], {}, "--trials: 0"),
    (["--trials", "-3"], {}, "--trials: -3"),
    ([], {"n": [2, 0]}, "run.n: 0"),
    ([], {"trials": -3}, "run.trials: -3"),
])
def test_simulate_rejects_bad_block_lengths_and_trials(tmp_path, capsys, flags, run_section, bad):
    data = tiny_scenario_data()
    data["run"].update(run_section)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    assert run(["simulate", str(path)] + flags) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and bad in err


def test_scenario_file_unknown_distortion_kind_is_a_config_error(tmp_path, capsys):
    data = tiny_scenario_data()
    data["topology"]["distortions"]["1"]["kind"] = "squared"
    path = tmp_path / "squared.json"
    path.write_text(json.dumps(data))
    assert run(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "topology.distortions[1]" in err and "'squared'" in err


@pytest.mark.parametrize("path, named", [
    (("topology", "distortions", "1", "source"), "topology.distortions[1] has no key 'source'"),
    (("channels", 0, "rows"), "channels[0] has no key 'rows'"),
    (("topology", "encoders"), "topology has no key 'encoders'"),
    (("source", "table"), "source has no key 'table'"),
    (("reproducers", "1", "alphabet"), "reproducers[1] has no key 'alphabet'"),
], ids=["distortion-source", "channel-rows", "topology-encoders", "source-table",
        "reproducer-alphabet"])
def test_scenario_file_missing_key_is_a_config_error(tmp_path, capsys, path, named):
    data = tiny_scenario_data()
    section = data
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    scenario = tmp_path / "missing.json"
    scenario.write_text(json.dumps(data))
    assert run(["simulate", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("suite, seeds", [("mcrp", "0"), ("spectral", "-3")])
def test_verify_rejects_non_positive_seeds(capsys, suite, seeds):
    assert run(["verify", "--suite", suite, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--seeds: %s" % seeds in err


def _malformed(data, path, value):
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value, named", [
    (("source", "table"), 3, "source has a malformed value"),
    (("source", "table", 0, 1), "abc", "source has a malformed value"),
    (("channels",), {"x": 1}, "channels[0] has a malformed value"),
    (("channels", 0, "rows", 0), [[0]], "channels[0] has a malformed value"),
    (("topology", "encoders"), 1, "topology has a malformed value"),
    (("run", "seed"), "x", "run has a malformed value"),
    (("run", "seed"), -1, "run has a malformed value (seed is negative"),
    (("run", "delta"), "x", "run has a malformed value"),
    (("run", "D", "1"), "-1/10", "run has a malformed value (D[1] is negative"),
    (("code", "rates", "1"), -0.5, "code has a malformed value (rate of encoder 1 is negative"),
    (("code", "aux_rates"), {"1": -0.25}, "code has a malformed value (auxiliary rate"),
    (("run", "delta"), float("nan"), "run has a malformed value (run.delta is negative or not"),
    (("run", "delta"), -0.5, "run has a malformed value (run.delta is negative"),
    (("run", "D", "1"), float("inf"), "run has a malformed value"),
    (("code", "rates", "1"), float("nan"), "code has a malformed value (rate of encoder 1 is"),
    (("code", "aux_rates"), {"1": float("nan")}, "code has a malformed value (auxiliary rate"),
    (("run", "seed"), 1.5, "run has a malformed value (1.5 is not an integer)"),
    (("run", "trials"), 2.7, "run.trials: 2.7 is not a positive integer"),
    (("run", "n"), [2.5], "run.n: 2.5 is not a positive integer"),
    (("run", "seed"), True, "run has a malformed value (True is not an integer)"),
    (("code", "q"), 2.5, "code has a malformed value (2.5 is not an integer)"),
    # a repeated key is refused, not overwritten by its last entry
    (("source", "table"), [[[0], "1/2"], [[0], "1/2"], [[1], "1/2"]],
     "source has a malformed value (repeated key (0,))"),
    (("channels", 0, "rows"), [[[0], [[[0], "9/10"], [[1], "1/10"]]],
                               [[1], [[[0], "1/10"], [[1], "9/10"]]],
                               [[0], [[[0], "1/2"], [[1], "1/2"]]]],
     "channels[0] has a malformed value (repeated key (0,))"),
    (("channels", 0, "rows", 0), [[0], [[[0], "1/2"], [[1], "1/2"], [[0], "1/2"]]],
     "channels[0] has a malformed value (repeated key (0,))"),
    (("reproducers", "1"), {"args": ["W1"], "alphabet": [0, 1],
                            "table": [[[0], 0], [[1], 1], [[0], 1]]},
     "reproducers[1] has a malformed value (repeated key (0,))"),
], ids=["table-number", "probability-text", "channels-mapping", "row-without-outputs",
        "encoders-number", "seed-text", "negative-seed", "delta-text", "negative-D", "negative-rate",
        "negative-aux-rate", "nan-delta", "negative-delta", "infinite-D", "nan-rate",
        "nan-aux-rate", "fractional-seed", "fractional-trials", "fractional-n", "bool-seed",
        "fractional-q", "repeated-source-key", "repeated-channel-row", "repeated-channel-output",
        "repeated-reproducer-key"])
def test_scenario_file_malformed_value_is_a_config_error(tmp_path, capsys, path, value, named):
    scenario = tmp_path / "malformed.json"
    scenario.write_text(json.dumps(_malformed(tiny_scenario_data(), path, value)))
    assert run(["simulate", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("delta", ["nan", "-1", "inf", "-0.001"])
@pytest.mark.parametrize("mode", [["--trials", "5"], ["--exact"]], ids=["trials", "exact"])
def test_simulate_rejects_negative_and_non_finite_delta(capsys, delta, mode):
    """Every comparison with NaN is false, so a NaN delta would report no
    exceedance at all; a negative one shifts every bound below D."""
    assert run(["simulate", "slepian-wolf", "--n", "2", "--delta", delta] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err and "delta" in captured.err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(["scenario-list"]) == 0
    assert main(["scenario-list"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("suite, flags", [
    ("decision", ["--seeds", "3", "--seed", "5"]),
    ("hash", ["--seed", "5"]),
    ("hash", ["--seeds", "3"]),
])
def test_verify_rejects_seeds_for_fixed_suites(capsys, suite, flags):
    assert run(["verify", "--suite", suite] + flags) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "takes no --seeds or --seed" in err


@pytest.mark.parametrize("argv, env, named", [
    (["simulate", "wyner-ziv-binary", "--n", "1", "--trials", "5", "--seed", "-1"], None,
     "--seed"),
    (["verify", "--suite", "mbcp", "--seed", "-3"], None, "--seed"),
    (["simulate", "wyner-ziv-binary", "--n", "1", "--trials", "5"], "x", "MULTITERM_SEED"),
    (["simulate", "wyner-ziv-binary", "--n", "1", "--trials", "5"], "-2", "MULTITERM_SEED"),
    (["verify", "--suite", "mcrp", "--seeds", "2"], "x", "MULTITERM_SEED"),
])
def test_bad_seed_is_a_config_error(capsys, monkeypatch, argv, env, named):
    if env is None:
        monkeypatch.delenv("MULTITERM_SEED", raising=False)
    else:
        monkeypatch.setenv("MULTITERM_SEED", env)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


def _w_alphabet(a, b):
    """An edit that puts W1 over the symbols `a` and `b`: X1 = 0 is sent to
    `a` and X1 = 1 to `b` with probability 9/10, and `b` is reproduced as 1."""
    def edit(data):
        data["channels"][0]["outputs"] = [["W1", [a, b]]]
        data["channels"][0]["rows"] = [[[0], [[[a], "9/10"], [[b], "1/10"]]],
                                       [[1], [[[a], "1/10"], [[b], "9/10"]]]]
        data["reproducers"]["1"] = {"args": ["W1"], "alphabet": [0, 1],
                                    "table": [[[a], 0], [[b], 1]]}
    return edit


def _set(section, key, value):
    return lambda data: data[section].update({key: value})


@pytest.mark.parametrize("edit, flags, code, named", [
    (_set("code", "rates", {"1": 7.9}), ["--n", "8"], 3, "rate of encoder 1 is 7.9: at n=8"),
    (_set("code", "rates", {"1": 200}), ["--n", "8"], 3, "rate of encoder 1 is 200: at n=8"),
    (_set("topology", "distortions", {}), ["--delta", "0.1"], 2,
     "reproduction 1 has no distortion measure"),
    (_w_alphabet(0, "x"), ["--rule", "map"], 2, "W symbols of encoder 1 cannot be ordered"),
    (_w_alphabet(0, "x"), ["--rule", "map", "--exact"], 2,
     "W symbols of encoder 1 cannot be ordered"),
    (_set("topology", "decoders", [1, 1]), [], 2, "decoder 1 is listed twice"),
    (_set("run", "n", []), [], 2, "run.n is empty"),
], ids=["rate-7.9", "rate-200", "no-distortion-measure", "map-unordered-symbols",
        "map-unordered-symbols-exact", "duplicate-decoder", "empty-run-n"])
def test_scenario_file_probes_exit_without_a_traceback(tmp_path, capsys, edit, flags, code,
                                                        named):
    """Scenario files that once crashed `simulate` with an exception, or
    printed only a CSV header, exit 2 (configuration) or 3 (budget) with one
    line naming the offending key: an image over the budget is refused
    before any hash table is built, quickly."""
    data = tiny_scenario_data()
    edit(data)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert run(["simulate", str(path)] + flags) == code
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_region_needs_no_distortion_measure(tmp_path):
    """The region of a scenario file whose reproduction has no distortion
    measure is still emitted; only `simulate` needs the measure."""
    data = tiny_scenario_data()
    data["topology"]["distortions"] = {}
    path = tmp_path / "region.json"
    path.write_text(json.dumps(data))
    assert run(["region", str(path)]) == 0


@pytest.mark.parametrize("a, b, rule", [("a", "b", "map"), (0, "x", "crng")])
def test_w_alphabets_the_rule_can_decode_run(tmp_path, a, b, rule):
    """The valid neighbours of the unordered alphabet under MAP: W1 over "a"
    and "b", which sort, runs under MAP, and W1 over 0 and "x" under crng,
    which needs no order; both estimators."""
    data = tiny_scenario_data()
    _w_alphabet(a, b)(data)
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--exact"]):
        assert run(["simulate", str(path), "--rule", rule, "--n", "2"] + flags) == 0
