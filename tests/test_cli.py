import argparse
import contextlib
import csv
import io
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqlab import (
    FieldSpec,
    IrreducibleTable,
    SieveError,
    build_table,
    irreducible_count,
)
from fqlab import arith, cli
from fqlab.cli import (
    _COMMANDS,
    MAX_GRID_POINTS,
    ExperimentConfig,
    _parse_t_grid,
    _write_artifacts,
    main,
)


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FQLAB_CACHE_DIR", str(tmp_path / "cache"))
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# one line of text: letters, digits, punctuation, symbols and spaces,
# with no line break; a key holds no '=' and starts with no '#'
_LINE = st.text(st.characters(categories=("L", "N", "P", "S", "Zs")),
                max_size=12).map(str.strip)
_KEYS = _LINE.filter(lambda k: k and "=" not in k and not k.startswith("#"))


class TestConfig:
    def test_parse_format_roundtrip(self):
        text = "p=2\nn=8\nf=kfree:2\nh1=0\n"
        cfg = ExperimentConfig.parse(text)
        assert cfg.format() == text
        assert ExperimentConfig.parse(cfg.format()).entries == cfg.entries

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KEYS, _LINE, max_size=8))
    def test_parse_format_roundtrip_any_entries(self, entries):
        text = ExperimentConfig(entries).format()
        cfg = ExperimentConfig.parse(text)
        assert cfg.entries == entries and list(cfg.entries) == list(entries)
        assert cfg.format() == text

    def test_comments_and_blanks(self):
        cfg = ExperimentConfig.parse("# c\n\np=3\n")
        assert cfg.entries == {"p": "3"}

    def test_bad_line(self):
        with pytest.raises(ValueError):
            ExperimentConfig.parse("p: 3\n")

    def test_flag_wins_over_config(self):
        cfg = ExperimentConfig.parse("p=3\n")
        assert cfg.get("p", 5) == 5
        assert cfg.get("p", None) == "3"
        assert cfg.get("missing", None, "d") == "d"


class TestSieveCommand:
    def test_writes_cache_and_reports(self, tmp_path, monkeypatch):
        rc = run(["sieve", "--p", "2", "--max-deg", "8", "--out", "s"],
                 tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "s.csv")
        assert len(rows) == 8
        assert all(r["ok"] == "True" for r in rows)
        assert (tmp_path / "cache" / "p2_d8.fqi").exists()
        mirror = json.loads((tmp_path / "s.json").read_text())
        assert [str(m["count"]) for m in mirror] == [r["count"] for r in rows]

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        rc = run(["sieve", "--p", "2", "--max-deg", "22", "--budget", "1000"],
                 tmp_path, monkeypatch)
        assert rc == 2


# one small run of every command, as key -> value; the flag form is
# --key=value ('_' written '-'), the config form a key=value line
EVERY_COMMAND = [
    ("sieve", {"p": "3", "max_deg": "5"}),
    ("factor", {"p": "3", "poly": "x^4+x+2", "budget": "100000"}),
    ("correlate", {"p": "2", "n_range": "4:6", "f": "kfree:2", "g": "moebius",
                   "h1": "0", "h2": "x", "gamma": "3", "depth": "20",
                   "omit_timing": "1"}),
    ("mainterm", {"p": "2", "n": "inf", "f": "phi_ratio", "g": "phi_ratio",
                  "h1": "0", "h2": "1", "depth": "25"}),
    ("chowla", {"p": "2", "y": "3", "h": "x", "n_range": "6:8:2", "C": "2.0",
                "omit_timing": "1"}),
    ("dist", {"p": "3", "n": "4", "domain": "prime", "psi1": "omega",
              "psi2": "big_omega", "h1": "0", "h2": "1"}),
    ("charfn", {"p": "2", "n": "6", "t_grid": "-1:1:0.5", "h1": "1",
                "h2": "x"}),
    ("tk", {"p": "2", "n_range": "5:7", "domain": "prime",
            "psi": "first_power", "h": "1"}),
    ("diagnostics", {"p": "2", "n": "6", "h": "x", "t": "0.5"}),
]
COMMANDS = ", ".join(command for command, _ in EVERY_COMMAND)


class TestDeclarationTable:
    @pytest.mark.parametrize("command,values", EVERY_COMMAND,
                             ids=[c for c, _ in EVERY_COMMAND])
    def test_flags_and_config_give_identical_artifacts(
            self, command, values, tmp_path, monkeypatch):
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
        assert run([command, *flags, "--out", "flag"],
                   tmp_path, monkeypatch) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ExperimentConfig({**values, "out": "cfg"}).format())
        assert run([command, "--config", str(cfg)], tmp_path, monkeypatch) == 0
        for ext in ("csv", "json"):
            assert (tmp_path / f"flag.{ext}").read_bytes() == \
                (tmp_path / f"cfg.{ext}").read_bytes()

    @pytest.mark.parametrize("argv, named", [
        (["factor", "--p", "abc", "--poly", "x"], "--p: "),
        (["correlate", "--domain", "foo"], "--domain: "),
        (["factor", "--p", "2"], "--poly"),
        (["factor", "--p", "2", "--poly", "x", "--bogus", "1"], "--bogus"),
        ([], f"no command; choose from {COMMANDS}"),
        (["bogus"], f"unknown command 'bogus'; choose from {COMMANDS}"),
    ], ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5"])
    def test_usage_errors_exit_1(self, argv, named, tmp_path, monkeypatch,
                                 capsys):
        assert run(argv, tmp_path, monkeypatch) == 1
        assert named in capsys.readouterr().err

    def test_bad_config_value_names_its_key(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("poly=x\nbudget=lots\n")
        assert run(["factor", "--config", str(cfg)], tmp_path, monkeypatch) == 1
        assert "--budget: " in capsys.readouterr().err

    def test_help_exits_0_and_lists_every_command(self, capsys):
        for flag in ("--help", "-h"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == 0
            listed = capsys.readouterr().out
            assert all(command in listed for command, _ in EVERY_COMMAND)
        with pytest.raises(SystemExit) as exc:
            main(["tk", "--help"])
        assert exc.value.code == 0
        assert "--n-range" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["factor", "--p", "2", "--poly", "x^4+x^2"],
        ["correlate", "--p", "2", "--n", "4", "--f", "kfree:2"],
    ], ids=["factor", "correlate"])
    def test_runs_while_argparse_is_refused(self, argv, tmp_path, monkeypatch):
        # the declaration table reads its own flags: no parser is built
        def refuse(self, *args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert run(argv, tmp_path, monkeypatch) == 0

    @pytest.mark.parametrize("argv, code", [
        (["tk", "--p", "2", "--n-r", "6:7", "--out", "t"], 0),
        (["mainterm", "--h", "1"], 1),
        (["factor", "--c", "c"], 1),
        (["factor", "--poly=x", "--p", "5", "--p", "2", "--out", "f"], 0),
        (["charfn", "--p", "2", "--n", "4", "--t-grid", "-3:3:0.5"], 1),
        (["charfn", "--p", "2", "--n", "4", "--t-grid=-3:3:0.5"], 0),
        (["factor", "--bogus", "1", "-h"], 0),
        (["factor", "--p", "-h"], 1),
        (["factor", "--he"], 0),
        (["factor", "--poly", "x", "extra"], 1),
        (["factor", "--poly", "x", "--"], 1),
        (["factor", "--poly", "x", "-p", "2"], 1),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_flag_spellings(self, argv, code, tmp_path, monkeypatch, capsys):
        # the spellings argparse accepted and refused, run through main
        try:
            rc = run(argv, tmp_path, monkeypatch)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        if "--poly=x" in argv:  # the last --p wins
            assert read_csv(tmp_path / "f.csv")[0]["q"] == "2"


def argparse_flags(command, argv):
    """What the argparse parser built from the command's table, as the CLI
    once did, makes of argv: its key -> string map, else 1 for a usage
    error or 0 for help."""
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    ap = Parser(prog=f"fqlab {command}")
    ap.add_argument("--config")
    for key in _COMMANDS[command][1]:
        ap.add_argument("--" + key.replace("_", "-"), dest=key)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            given = vars(ap.parse_args(argv))
    except ValueError:
        return 1
    except SystemExit as exc:
        return exc.code
    # argparse strips '--' from --key=--, leaving a list; the tokenizer
    # keeps the string, which the key's converter then judges
    return {k: "--" if v == [] else v for k, v in given.items() if v is not None}


def tokenizer_flags(command, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli._read_flags(command, _COMMANDS[command][1], argv)
    except ValueError:
        return 1
    except SystemExit as exc:
        return exc.code


def _argv(command):
    """argv after the command: its flags whole and by prefix, with and
    without =value, values that start with '-', repeats, '--',
    positionals, single-dash flags and -h anywhere."""
    names = ["config", "help", *_COMMANDS[command][1]]
    prefix = st.sampled_from(names).flatmap(lambda k: st.integers(
        1, len(k)).map(lambda i: "--" + k.replace("_", "-")[:i]))
    flag = prefix | st.sampled_from([
        "-h", "--help", "-hh", "-hx", "-h=h", "-h=", "-p", "---p", "--bogus",
        "--n_range", "--", "-"])
    value = st.sampled_from([
        "2", "x", "kfree:2", "-3", "-3.5", "-.5", "-3:3:0.5", "-x + 1", "",
        "-h", "--", "a b", "=", "x=1", "-1e3", "-", "--p"]) | st.text(max_size=3)
    token = flag | value | st.tuples(flag, value).map("=".join)
    return st.lists(token, max_size=8)


_COMMAND_ARGV = st.sampled_from(list(_COMMANDS)).flatmap(
    lambda c: st.tuples(st.just(c), _argv(c)))


class TestParityOracle:
    # the tokenizer reads every argv as the argparse parser it replaced did
    @settings(max_examples=150, deadline=None)
    @given(_COMMAND_ARGV)
    @example(("tk", ["--n-r", "6:7"]))
    @example(("factor", ["--he"]))
    @example(("mainterm", ["--h", "1"]))
    @example(("factor", ["--c", "c"]))
    @example(("chowla", ["--h", "x", "--C", "2"]))
    @example(("dist", ["--n", "-3"]))
    @example(("charfn", ["--t-grid", "-3:3:0.5"]))
    @example(("charfn", ["--t-grid=-3:3:0.5"]))
    @example(("factor", ["--p", "2", "--p=3"]))
    @example(("factor", ["--bogus", "1", "-h"]))
    @example(("factor", ["--p", "-h"]))
    @example(("factor", ["-h", "--c", "c"]))
    @example(("factor", ["--poly", "x", "--", "-h"]))
    @example(("factor", ["--poly", "x", "extra"]))
    @example(("factor", ["-p", "2"]))
    @example(("factor", ["--poly=--"]))
    @example(("factor", ["-hh"]))
    @example(("factor", ["-hx"]))
    @example(("factor", ["--poly", "-x + 1"]))
    def test_same_values_and_exits_as_argparse(self, command_argv):
        command, argv = command_argv
        assert tokenizer_flags(command, argv) == argparse_flags(command, argv)


class TestFactorCommand:
    def test_factor_output(self, tmp_path, monkeypatch):
        rc = run(["factor", "--p", "2", "--poly", "x^4+x^2", "--out", "f"],
                 tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "f.csv")
        assert [(r["prime"], r["multiplicity"]) for r in rows] == \
            [("x", "2"), ("x+1", "2")]

    def test_invalid_poly_exit_1(self, tmp_path, monkeypatch):
        assert run(["factor", "--p", "2", "--poly", "2x+1"],
                   tmp_path, monkeypatch) == 1

    def test_huge_exponent_exit_1(self, tmp_path, monkeypatch):
        assert run(["factor", "--p", "2", "--poly", "x^100000000000000000000"],
                   tmp_path, monkeypatch) == 1


class TestCorrelateCommand:
    def test_squarefree_example(self, tmp_path, monkeypatch):
        rc = run(["correlate", "--p", "2", "--n", "2", "--f", "kfree:2",
                  "--g", "kfree:2", "--h1", "0", "--h2", "1",
                  "--gamma", "4", "--out", "c"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "c.csv")
        assert len(rows) == 1
        assert float(rows[0]["raw_re"]) == 2.0
        assert rows[0]["functions"] == "kfree:2;kfree:2"

    def test_csv_schema(self, tmp_path, monkeypatch):
        run(["correlate", "--p", "2", "--n", "4", "--out", "c"],
            tmp_path, monkeypatch)
        rows = read_csv(tmp_path / "c.csv")
        want = ["q", "n", "domain", "functions", "h_list", "raw_re",
                "raw_im", "normalized_re", "normalized_im", "main_re",
                "main_im", "tail_bound", "deviation", "seconds"]
        assert list(rows[0].keys()) == want

    def test_unknown_function_exit_1(self, tmp_path, monkeypatch):
        assert run(["correlate", "--p", "2", "--n", "4", "--f", "mystery"],
                   tmp_path, monkeypatch) == 1

    def test_config_file_drives_run(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p=2\nn=2\nf=kfree:2\ng=kfree:2\nh1=0\nh2=1\n"
                       "gamma=4\nout=fromcfg\n")
        rc = run(["correlate", "--config", str(cfg)], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "fromcfg.csv")
        assert float(rows[0]["raw_re"]) == 2.0

    @pytest.mark.parametrize("argv", [
        ["correlate", "--p", "2", "--n-range", "6:8:2", "--f", "kfree:2",
         "--g", "liouville_trunc:3", "--h1", "0", "--h2", "x",
         "--omit-timing", "1"],
        ["mainterm", "--p", "2", "--n", "inf", "--f", "kfree:2",
         "--g", "phi_ratio", "--h1", "0", "--h2", "x^2+x"],
    ], ids=["correlate", "mainterm"])
    def test_gamma_changes_no_byte(self, argv, tmp_path, monkeypatch):
        # gamma is checked and read by no handler, from a flag or a file
        _assert_inert(argv, "gamma", "4", tmp_path, monkeypatch)

    @pytest.mark.parametrize("argv", [
        ["correlate", "--p", "2", "--n-range", "6:8:2", "--f", "liouville",
         "--g", "liouville_trunc:3", "--h1", "0", "--h2", "x",
         "--omit-timing", "1"],
        ["mainterm", "--p", "2", "--n", "inf", "--f", "liouville_trunc:8",
         "--g", "liouville_trunc:8", "--h1", "0", "--h2", "1"],
    ], ids=["correlate", "mainterm"])
    def test_depth_changes_no_byte(self, argv, tmp_path, monkeypatch):
        # each local factor is summed to double precision; depth, once
        # its truncation, is checked and read by no handler
        _assert_inert(argv, "depth", "25", tmp_path, monkeypatch)


def _assert_inert(argv, key, value, tmp_path, monkeypatch):
    """The run writes the same bytes without key, with --key value and
    with key=value in a config file."""
    cfg = tmp_path / f"{key}.cfg"
    cfg.write_text(f"{key}={value}\n")
    pairs = []
    for i, extra in enumerate(([], [f"--{key}", value],
                               ["--config", str(cfg)])):
        assert run([*argv, *extra, "--out", f"o{i}"],
                   tmp_path, monkeypatch) == 0
        pairs.append([(tmp_path / f"o{i}{ext}").read_bytes()
                      for ext in (".csv", ".json")])
    assert pairs[0] == pairs[1] == pairs[2]


class TestChowlaCommand:
    def test_scan_artifact(self, tmp_path, monkeypatch):
        rc = run(["chowla", "--p", "2", "--y", "2", "--h", "x",
                  "--n-range", "6:10:2", "--out", "ch"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "ch.csv")
        assert [r["n"] for r in rows] == ["6", "8", "10"]
        assert all(r["y"] == "2" for r in rows)
        assert all(float(r["bound_C_log4y_y4"]) > 0 for r in rows)

    def test_deterministic_csv_with_omit_timing(self, tmp_path, monkeypatch):
        args = ["chowla", "--p", "2", "--y", "2", "--h", "x",
                "--n-range", "6:8:2", "--omit-timing", "1"]
        run(args + ["--out", "a"], tmp_path, monkeypatch)
        run(args + ["--out", "b"], tmp_path, monkeypatch)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestStatsCommands:
    def test_mainterm_inf(self, tmp_path, monkeypatch):
        rc = run(["mainterm", "--p", "2", "--n", "inf", "--f", "phi_ratio",
                  "--g", "phi_ratio", "--h1", "0", "--h2", "1",
                  "--out", "mt"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "mt.csv")
        assert abs(float(rows[0]["main_re"]) - 0.196543552) < 1e-8
        assert float(rows[0]["tail_bound"]) < 1e-9

    @pytest.mark.parametrize("p, want", [(5, 0.6344473023355447),
                                         (7, 0.732461962649185)])
    def test_mainterm_odd_p_on_an_empty_cache(self, p, want, tmp_path,
                                              monkeypatch):
        # the table goes to half the degree of h2 - h1 (here degree 1),
        # never to a fixed degree past the budget
        rc = run(["mainterm", "--p", str(p), "--n", "inf", "--f", "phi_ratio",
                  "--g", "phi_ratio", "--h1", "0", "--h2", "1",
                  "--out", "mt"], tmp_path, monkeypatch)
        assert rc == 0
        row = read_csv(tmp_path / "mt.csv")[0]
        assert abs(float(row["main_re"]) - want) <= float(row["tail_bound"]) < 1e-9

    def test_dist_dump(self, tmp_path, monkeypatch):
        rc = run(["dist", "--p", "2", "--n", "4", "--out", "d"],
                 tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "d.csv")
        assert sum(int(r["multiplicity"]) for r in rows) == 16
        assert list(rows[0].keys()) == ["value", "multiplicity"]

    def test_charfn_grid(self, tmp_path, monkeypatch):
        rc = run(["charfn", "--p", "2", "--n", "6", "--t-grid=-1:1:1",
                  "--out", "cf"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "cf.csv")
        assert [float(r["t"]) for r in rows] == [-1.0, 0.0, 1.0]
        mid = rows[1]
        assert float(mid["phi_n_re"]) == 1.0 and float(mid["phi_re"]) == 1.0

    @pytest.mark.parametrize("command", ["dist", "charfn"])
    @pytest.mark.parametrize("psi2, arrays", [("log_phi_ratio", 1),
                                              ("zero", 2)])
    def test_each_function_sieved_once(self, command, psi2, arrays,
                                       tmp_path, monkeypatch):
        # --psi1 and --psi2 naming one function share one value array
        built = []
        value_array = arith.value_array

        def spy(psi, *rest):
            built.append(psi.name)
            return value_array(psi, *rest)

        monkeypatch.setattr(arith, "value_array", spy)
        assert run([command, "--p", "2", "--n", "6", "--psi1", "log_phi_ratio",
                    "--psi2", psi2, "--h2", "1", "--out", "o"],
                   tmp_path, monkeypatch) == 0
        assert sorted(built) == sorted({"log_phi_ratio", psi2})
        assert len(built) == arrays

    def test_tk_command(self, tmp_path, monkeypatch):
        rc = run(["tk", "--p", "2", "--n-range", "6:8:2", "--psi", "ones",
                  "--h", "0", "--out", "t"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "t.csv")
        assert len(rows) == 2
        assert abs(float(rows[1]["ratio"]) - 0.160084221494912) < 1e-9

    def test_tk_unknown_rule(self, tmp_path, monkeypatch, capsys):
        assert run(["tk", "--p", "2", "--n", "6", "--psi", "what"],
                   tmp_path, monkeypatch) == 1
        assert "--psi: " in capsys.readouterr().err

    def test_diagnostics(self, tmp_path, monkeypatch):
        rc = run(["diagnostics", "--p", "2", "--n", "6", "--h", "1",
                  "--t", "1.0", "--out", "dg"], tmp_path, monkeypatch)
        assert rc == 0
        rows = read_csv(tmp_path / "dg.csv")
        assert float(rows[0]["theta_ratio"]) >= 0
        assert len(rows[0]["h_sequence"].split(";")) == 6

    def test_diagnostics_shift_of_degree_n_or_more(self, tmp_path, monkeypatch):
        # the shifts of the paper have degree < n
        for h in ("x^6", "x^7+1"):
            assert run(["diagnostics", "--p", "2", "--n", "6", "--h", h,
                        "--out", "dg"], tmp_path, monkeypatch) == 1
        assert not (tmp_path / "dg.csv").exists()


class TestCacheReuse:
    def test_cache_loaded_on_second_run(self, tmp_path, monkeypatch):
        run(["sieve", "--p", "2", "--max-deg", "6", "--out", "s1"],
            tmp_path, monkeypatch)
        cache = tmp_path / "cache" / "p2_d6.fqi"
        stamp = cache.stat().st_mtime_ns
        rc = run(["correlate", "--p", "2", "--n", "6", "--f", "kfree:2",
                  "--g", "kfree:2", "--h1", "0", "--h2", "1", "--gamma", "3",
                  "--out", "c2"], tmp_path, monkeypatch)
        assert rc == 0
        assert cache.stat().st_mtime_ns == stamp  # reused, not rebuilt

    def test_cache_dir_flag_overrides_env(self, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        rc = run(["sieve", "--p", "3", "--max-deg", "4",
                  "--cache-dir", str(other), "--out", "s"],
                 tmp_path, monkeypatch)
        assert rc == 0
        assert (other / "p3_d4.fqi").exists()
        assert not (tmp_path / "cache" / "p3_d4.fqi").exists()

    @pytest.mark.parametrize("cached", [None, 8, 20])
    def test_table_has_the_needed_degree(self, cached, tmp_path):
        sound = build_table(FieldSpec(2), cached) if cached else None
        for k in range(1, 9):
            cache = tmp_path / f"c{k}"
            cache.mkdir()
            if sound is not None:
                sound.save(cache / f"p2_d{cached}.fqi")
            assert cli.get_table(2, k, cache).max_deg == k


class TestScanTables:
    # (argv, the table built on an empty cache, the larger table once built)
    CASES = [
        # the monic scan reads primes to n // 2
        (["tk", "--p", "2", "--n", "12"], (2, 6), (2, 12)),
        # the main term factors h and reads deg h // 2
        (["chowla", "--p", "2", "--y", "2", "--h", "x^13", "--n-range", "14:14",
          "--omit-timing", "1"], (2, 6), (2, 13)),
        # the scan reads n // 2 = 3; the main terms of the limit read no
        # table for h2 - h1 = 1
        (["charfn", "--p", "3", "--n", "6"], (3, 3), (3, 5)),
        # a main term reads only the factorization of h2 - h1, never gamma
        (["mainterm", "--p", "2", "--gamma", "12", "--f", "phi_ratio",
          "--g", "phi_ratio", "--h1", "0", "--h2", "1"], (2, 1), (2, 12)),
        (["correlate", "--p", "2", "--n", "8", "--gamma", "12",
          "--f", "phi_ratio", "--g", "phi_ratio", "--h1", "0", "--h2", "1",
          "--omit-timing", "1"], (2, 4), (2, 12)),
        # custom:c.txt is neutral past degree 1 and not unit bounded
        (["correlate", "--p", "2", "--n", "6", "--f", "custom:c.txt",
          "--g", "custom:c.txt", "--h1", "0", "--h2", "1",
          "--omit-timing", "1"], (2, 1), (2, 4)),
        # no main term is attached, so h2 - h1 = x^5 is not factored
        (["correlate", "--p", "2", "--n", "6", "--f", "custom:c.txt",
          "--g", "custom:c.txt", "--h1", "0", "--h2", "x^5",
          "--omit-timing", "1"], (2, 1), (2, 4)),
    ]

    @pytest.mark.parametrize("argv, small, large", CASES,
                             ids=[a[0] for a, _, _ in CASES])
    def test_smallest_adequate_table(self, argv, small, large, tmp_path,
                                     monkeypatch):
        (tmp_path / "c.txt").write_text("1,2 = 3\n")
        assert run(argv + ["--out", "small"], tmp_path, monkeypatch) == 0
        cache = tmp_path / "cache"
        assert [f.name for f in cache.iterdir()] == ["p%d_d%d.fqi" % small]
        # the same bytes read from the larger table alone
        other = tmp_path / "other"
        other.mkdir()
        p, d = large
        build_table(FieldSpec(p), d).save(other / f"p{p}_d{d}.fqi")
        assert run(argv + ["--cache-dir", str(other), "--out", "large"],
                   tmp_path, monkeypatch) == 0
        assert [f.name for f in other.iterdir()] == [f"p{p}_d{d}.fqi"]
        for ext in (".csv", ".json"):
            assert ((tmp_path / f"small{ext}").read_bytes()
                    == (tmp_path / f"large{ext}").read_bytes())


class TestUnusableInput:
    # each exits 1 with a message naming what was wrong, not a traceback
    @pytest.mark.parametrize("argv, named", [
        (["mainterm", "--functions", "phi_ratio", "--shifts", "0"],
         "--functions"),
        (["mainterm", "--functions", "phi_ratio,phi_ratio,phi_ratio",
          "--shifts", "0,1,x"], "--shifts"),
        (["mainterm", "--functions", "phi_ratio,phi_ratio"], "--shifts"),
        (["correlate", "--n", "4", "--shifts", "0,1"], "--functions"),
        (["correlate", "--n", "4", "--f", "custom:missing.txt"],
         "missing.txt"),
        (["correlate", "--n", "4", "--cache-dir", "plain"], "--cache-dir: "),
        (["correlate", "--n", "4", "--out", "nodir/o"], "nodir/o"),
        (["correlate", "--config", "missing.cfg"], "missing.cfg"),
    ], ids=["one-function", "three-functions", "functions-alone",
            "shifts-alone", "custom-file", "cache-dir", "out", "config"])
    def test_exit_1_without_traceback(self, argv, named, tmp_path,
                                      monkeypatch, capsys):
        (tmp_path / "plain").write_text("a regular file\n")
        assert run(argv, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_closed_stdout_is_not_invalid_input(self, tmp_path, monkeypatch):
        # a reader that went away is no fault of the input: the error is
        # not reported as one, and the artifacts are already written
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", Closed())
        with pytest.raises(BrokenPipeError):
            run(["correlate", "--n", "4", "--out", "o"], tmp_path, monkeypatch)
        assert (tmp_path / "o.json").exists()


class TestCacheRecovery:
    @pytest.mark.parametrize("kind", [
        "truncated-header", "forged-count", "mislabelled", "trailing-bytes",
        "truncated-top-degree", "digit-out-of-range"])
    def test_bad_cache_file_is_rebuilt(self, kind, tmp_path, monkeypatch,
                                       capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / "p2_d8.fqi"
        if kind == "truncated-header":
            bad.write_bytes(b"FFQI\x01\x00")
        elif kind == "forged-count":
            # a valid header for p=2, max_deg=8, then an absurd N_1
            bad.write_bytes(b"FFQI" + struct.pack("<IIIQ", 1, 2, 8, 1 << 40))
        elif kind == "mislabelled":
            # a sound degree-1 table under a degree-8 name
            build_table(FieldSpec(2), 1).save(bad)
        else:
            # a sound table spoilt at its end only, past the degrees that
            # factoring a quartic reads: loading checks every degree
            build_table(FieldSpec(2), 8).save(bad)
            raw = bad.read_bytes()
            if kind == "trailing-bytes":
                raw += b"\x00"
            elif kind == "truncated-top-degree":
                raw = raw[:-3]
            else:
                raw = raw[:-1] + b"\x02"
            bad.write_bytes(raw)
        for out in ("f1", "f2"):  # the second run must not meet the bad file
            rc = run(["factor", "--p", "2", "--poly", "x^4+x^2", "--out", out],
                     tmp_path, monkeypatch)
            assert rc == 0
            rows = read_csv(tmp_path / f"{out}.csv")
            assert [(r["prime"], r["multiplicity"]) for r in rows] == \
                [("x", "2"), ("x+1", "2")]
        assert capsys.readouterr().err.count("rebuilding bad cache file") == 1
        assert not bad.exists()
        left = sorted(cache.glob("*"))
        assert left and all(f.suffix == ".fqi" for f in left)
        for f in left:
            IrreducibleTable.load(f)

    @pytest.mark.parametrize("poly, factors", [
        # the square of the duplicated prime must not pass for a prime
        ("x^16+x^14+x^12+x^10+x^8+x^6+1", [("x^8+x^7+x^6+x^5+x^4+x^3+1", "2")]),
        ("x^16+x", [("x", "1"), ("x+1", "1"), ("x^2+x+1", "1"),
                    ("x^4+x+1", "1"), ("x^4+x^3+1", "1"),
                    ("x^4+x^3+x^2+x+1", "1")]),
    ], ids=["square-of-the-copy", "x16-plus-x"])
    def test_repeated_record_is_rebuilt(self, poly, factors, tmp_path,
                                        monkeypatch, capsys):
        # the last degree-8 prime x^8+x^7+x^6+x^5+x^4+x^3+1 is replaced by
        # a copy of the first, which only the load-time ascent check sees
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / "p2_d8.fqi"
        sound = build_table(FieldSpec(2), 8)
        sound.save(bad)
        raw = bad.read_bytes()
        first = len(raw) - 8 * irreducible_count(2, 8)
        bad.write_bytes(raw[:-8] + raw[first:first + 8])
        with pytest.raises(SieveError, match="not strictly ascending"):
            IrreducibleTable.load(bad)
        for out in ("f1", "f2"):  # the second run must not meet the bad file
            rc = run(["factor", "--p", "2", "--poly", poly, "--out", out],
                     tmp_path, monkeypatch)
            assert rc == 0
            rows = read_csv(tmp_path / f"{out}.csv")
            assert [(r["prime"], r["multiplicity"]) for r in rows] == factors
        assert capsys.readouterr().err.count("rebuilding bad cache file") == 1
        table = IrreducibleTable.load(bad)  # rewritten in place
        for d in range(1, 9):
            assert table.prime_indices(d).tolist() == \
                sound.prime_indices(d).tolist()

    def test_rewrite_in_place_after_a_good_load_is_rebuilt(
            self, tmp_path, monkeypatch, capsys):
        # the second run checks the file again, although its length,
        # inode and modification time match the first run's: only the
        # bytes differ
        poly = "x^16+x^14+x^12+x^10+x^8+x^6+1"
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "p2_d8.fqi"
        build_table(FieldSpec(2), 8).save(path)
        for out in ("f1", "f2"):
            if out == "f2":
                before = path.stat()
                raw = path.read_bytes()
                first = len(raw) - 8 * irreducible_count(2, 8)
                with open(path, "r+b") as fh:
                    fh.seek(len(raw) - 8)
                    fh.write(raw[first:first + 8])
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
                after = path.stat()
                assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
                    (before.st_ino, before.st_size, before.st_mtime_ns)
            assert run(["factor", "--p", "2", "--poly", poly, "--out", out],
                       tmp_path, monkeypatch) == 0
            rows = read_csv(tmp_path / f"{out}.csv")
            assert [(r["prime"], r["multiplicity"]) for r in rows] == \
                [("x^8+x^7+x^6+x^5+x^4+x^3+1", "2")]
        assert capsys.readouterr().err.count("rebuilding bad cache file") == 1
        assert path.read_bytes() == raw

    def test_unlinks_only_the_file_that_failed(self, tmp_path, monkeypatch,
                                               capsys):
        # another run renames a sound table into place between the failed
        # read and the unlink: that table stays
        cache = tmp_path / "cache"
        cache.mkdir()
        bad, good = cache / "p2_d8.fqi", tmp_path / "good.fqi"
        build_table(FieldSpec(2), 8).save(good)
        sound = good.read_bytes()
        bad.write_bytes(sound[:-1] + b"\x02")
        load = IrreducibleTable.load.__func__

        def racing(cls, path, *rest):
            try:
                return load(cls, path, *rest)
            except SieveError:
                os.replace(good, path)
                raise

        monkeypatch.setattr(IrreducibleTable, "load", classmethod(racing))
        assert run(["factor", "--p", "2", "--poly", "x^4+x^2", "--out", "f"],
                   tmp_path, monkeypatch) == 0
        assert capsys.readouterr().err.count("rebuilding bad cache file") == 1
        assert bad.read_bytes() == sound
        assert sorted(f.name for f in cache.iterdir()) == \
            ["p2_d2.fqi", "p2_d8.fqi"]

    def test_flawed_file_is_rebuilt(self, cache_flaw, tmp_path, monkeypatch,
                                    capsys):
        _, spoil = cache_flaw
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / "p2_d8.fqi"
        build_table(FieldSpec(2), 8).save(bad)
        bad.write_bytes(spoil(bad.read_bytes(), 2, 5))
        rc = run(["factor", "--p", "2", "--poly", "x^16+x", "--out", "f"],
                 tmp_path, monkeypatch)
        assert rc == 0
        assert capsys.readouterr().err.count("rebuilding bad cache file") == 1
        assert IrreducibleTable.load(cache / "p2_d8.fqi").max_deg == 8

    def test_flaw_past_the_needed_degree(self, cache_flaw, tmp_path,
                                         monkeypatch, capsys):
        # factoring a quartic reads p2_d8.fqi in full only through degree
        # 2, yet every load checks the file's length and every degree's
        # count and end indices; a broken ascent in degree 5 waits for the
        # first command that needs degree 5
        how, spoil = cache_flaw
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / "p2_d8.fqi"
        build_table(FieldSpec(2), 8).save(bad)
        bad.write_bytes(spoil(bad.read_bytes(), 2, 5))
        ascent_only = how in ("repeated-index", "descending-pair")
        assert run(["factor", "--p", "2", "--poly", "x^4+x^2", "--out", "f1"],
                   tmp_path, monkeypatch) == 0
        rows = read_csv(tmp_path / "f1.csv")
        assert [(r["prime"], r["multiplicity"]) for r in rows] == \
            [("x", "2"), ("x+1", "2")]
        err = capsys.readouterr().err
        assert err.count("rebuilding bad cache file") == (not ascent_only)
        assert bad.exists() == ascent_only
        if ascent_only:
            assert run(["factor", "--p", "2", "--poly", "x^10+x", "--out",
                        "f2"], tmp_path, monkeypatch) == 0
            rows = read_csv(tmp_path / "f2.csv")
            assert [r["prime"] for r in rows] == \
                ["x", "x+1", "x^2+x+1", "x^6+x^3+1"]
            err = capsys.readouterr().err
            assert err.count("rebuilding bad cache file") == 1
            assert "not strictly ascending" in err
            assert not bad.exists()

    def test_version_1_file_is_rebuilt(self, tmp_path, monkeypatch, capsys):
        # the earlier layout: per degree a u64 N_d, then N_d records of d
        # coefficient bytes c0..c_{d-1}
        sound = build_table(FieldSpec(2), 8)
        old = b"FFQI" + struct.pack("<III", 1, 2, 8)
        for d in range(1, 9):
            idx = sound.prime_indices(d)
            old += struct.pack("<Q", len(idx))
            old += ((idx[:, None] >> np.arange(d)) & 1).astype(np.uint8).tobytes()
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "p2_d8.fqi").write_bytes(old)
        rc = run(["factor", "--p", "2", "--poly", "x^16+x", "--out", "f"],
                 tmp_path, monkeypatch)
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("rebuilding bad cache file") == 1
        assert "unsupported cache version 1" in err
        raw = (cache / "p2_d8.fqi").read_bytes()
        assert struct.unpack_from("<I", raw, 4) == (2,)

    def test_processes_sharing_a_corrupt_cache(self, tmp_path):
        # 4 processes x 2 trials meet one spoilt table at once: each
        # rebuilds or loads a sound one, and all write the same factors
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / "p2_d8.fqi"
        build_table(FieldSpec(2), 8).save(bad)
        spoilt = bad.read_bytes()[:-1] + b"\x02"
        outs = []
        for trial in range(2):
            bad.write_bytes(spoilt)
            procs = [subprocess.Popen(
                [sys.executable, "-m", "fqlab.cli", "factor", "--p", "2",
                 "--poly", "x^16+x", "--cache-dir", str(cache),
                 "--out", f"o{trial}{i}"],
                cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL) for i in range(4)]
            try:
                codes = [proc.wait(timeout=60) for proc in procs]
            finally:
                for proc in procs:
                    proc.kill()  # nothing to do once it has exited
            assert codes == [0] * 4
            outs += [(tmp_path / f"o{trial}{i}.json").read_bytes()
                     for i in range(4)]
        assert len(set(outs)) == 1
        assert IrreducibleTable.load(bad).max_deg == 8


class TestArtifacts:
    @staticmethod
    def old_bytes(stem, rows):
        # the row-by-row CSV and the streamed JSON of earlier versions
        keys = list(rows[0].keys()) if rows else []
        with open(stem.with_suffix(".csv"), "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for r in rows:
                w.writerow(r)
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        return [stem.with_suffix(ext).read_bytes() for ext in (".csv", ".json")]

    @pytest.mark.parametrize("argv", [
        ["dist", "--p", "2", "--n", "8"],
        ["mainterm", "--p", "3", "--f", "phi_ratio", "--g", "phi_ratio",
         "--h1", "0", "--h2", "x"],
    ], ids=["dist", "mainterm"])
    def test_command_artifacts_keep_their_bytes(self, argv, tmp_path,
                                                monkeypatch, capsys):
        assert run(argv + ["--out", "new"], tmp_path, monkeypatch) == 0
        rows = json.loads((tmp_path / "new.json").read_text())
        assert rows and all(isinstance(v, (str, int)) for r in rows
                            for v in r.values())
        new = [(tmp_path / f"new{ext}").read_bytes() for ext in (".csv", ".json")]
        assert new == self.old_bytes(tmp_path / "old", rows)

    @pytest.mark.parametrize("rows", [
        [],
        [{"value": repr(0.1 + 0.2), "multiplicity": 3},
         {"value": repr(-1e-300), "multiplicity": 1}],
        [{"t": 0.1, "x": float("1e16"), "name": "kfree:2;\u00fc", "k": -7,
          "ok": True, "empty": "", "comma": "a,b", "quote": 'say "hi"'}],
        [{"none": None, "nan": float("nan"), "inf": -float("inf"),
          "zero": -0.0, "line": "a\nb\t{c}", "sep": ",\n  "},
         {"none": 1, "nan": 2.5, "inf": "x", "zero": 0, "line": "",
          "sep": "]"}],
    ], ids=["empty", "repr-floats", "mixed", "specials"])
    def test_rows_keep_their_bytes(self, rows, tmp_path, capsys):
        _write_artifacts(str(tmp_path / "new"), rows, "summary")
        new = [(tmp_path / f"new{ext}").read_bytes() for ext in (".csv", ".json")]
        assert new == self.old_bytes(tmp_path / "old", rows)
        assert capsys.readouterr().out.startswith("summary\n")


    def test_failed_json_write_keeps_the_previous_pair(self, tmp_path, capsys):
        # the CSV is written, then the JSON encoder meets an object it
        # cannot encode: neither file of the earlier pair is replaced
        stem = tmp_path / "pair"
        _write_artifacts(str(stem), [{"a": 1, "b": "x"}], "summary")
        before = [stem.with_suffix(ext).read_bytes() for ext in (".csv", ".json")]
        with pytest.raises(TypeError):
            _write_artifacts(str(stem), [{"a": 2, "b": object()}], "summary")
        assert [stem.with_suffix(ext).read_bytes()
                for ext in (".csv", ".json")] == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["pair.csv",
                                                              "pair.json"]

class TestEnumerationBudget:
    def test_oversized_monic_enumeration_exit_2(self, tmp_path, monkeypatch):
        def give_up(signum, frame):
            raise TimeoutError("no budget check before the enumeration")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            t0 = time.perf_counter()
            rc = run(["correlate", "--p", "2", "--n", "40", "--f", "kfree:2",
                      "--g", "kfree:2", "--h1", "0", "--h2", "1"],
                     tmp_path, monkeypatch)
            elapsed = time.perf_counter() - t0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 2
        assert elapsed < 1.0

    def test_library_caps_a_larger_budget_flag(self, tmp_path, monkeypatch):
        # the flag admits 2^28 polynomials; the engine stops at its own
        # default budget of 2^27
        def give_up(signum, frame):
            raise TimeoutError("no budget check in the engine")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            rc = run(["correlate", "--p", "2", "--n", "28", "--f",
                      "liouville_trunc:2", "--g", "liouville_trunc:2",
                      "--h1", "0", "--h2", "x", "--budget", str(2**28)],
                     tmp_path, monkeypatch)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["chowla", "--n-range", "8:12"],
        ["dist", "--n", "12"],
        ["charfn", "--n", "12"],
        ["tk", "--n-range", "8:12"],
        ["diagnostics", "--n", "12"],
    ])
    def test_budget_flag_bounds_every_monic_scan(self, argv, tmp_path,
                                                 monkeypatch):
        assert run(argv + ["--p", "2", "--budget", "1000"],
                   tmp_path, monkeypatch) == 2


# inputs that must reach their exit code (2 budget, 1 invalid) within
# seconds, and the flag an invalid one's message names
HOSTILE = [
    (["factor", "--p", "251", "--poly", "x^10000"], 2, None),
    (["sieve", "--p", "2", "--max-deg", "100000"], 2, None),
    (["sieve", "--p", "2", "--max-deg", "1000000"], 2, None),
    (["tk", "--p", "2", "--domain", "prime", "--n-range", "1:100000"], 2, None),
    (["correlate", "--p", "2", "--n-range", "1:300000000"], 2, None),
    (["correlate", "--p", "2", "--domain", "prime",
      "--n-range", "1:300000000"], 2, None),
    (["correlate", "--p", "2", "--n-range", "9:3"], 1, "--n-range"),
    (["chowla", "--p", "2", "--n-range", "8:16:0"], 1, "--n-range"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=1:0:0.5"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=0:1:0"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=0:1:-0.5"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=0:inf:1"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=1e17:2e17:1"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=1,nan"], 1, "--t-grid"),
    (["charfn", "--p", "2", "--n", "4", "--t-grid=0:1e9:1"], 1, "--t-grid"),
    (["mainterm", "--p", "2", "--f", "liouville", "--g", "liouville",
      "--h1", "0", "--h2", "1", "--depth", "1000000000"], 1, None),
    # every degree is >= 1, checked by the declaration table
    (["tk", "--p", "2", "--n", "-2"], 1, "--n"),
    (["dist", "--p", "2", "--n", "-3", "--h2", "0"], 1, "--n"),
    (["mainterm", "--p", "2", "--n", "0", "--f", "phi_ratio",
      "--g", "phi_ratio", "--h1", "0", "--h2", "1"], 1, "--n"),
    (["mainterm", "--p", "2", "--n", "-5", "--f", "phi_ratio",
      "--g", "phi_ratio", "--h1", "0", "--h2", "1"], 1, "--n"),
    (["mainterm", "--p", "2", "--n", "NaN"], 1, "--n"),
    (["dist", "--p", "2", "--n", "0"], 1, "--n"),
    (["tk", "--p", "2", "--n", "0"], 1, "--n"),
    (["charfn", "--p", "2", "--n", "0"], 1, "--n"),
    (["correlate", "--p", "2", "--n", "0"], 1, "--n"),
    (["diagnostics", "--p", "2", "--n", "0"], 1, "--n"),
    (["sieve", "--p", "2", "--max-deg", "0"], 1, "--max-deg"),
    (["chowla", "--p", "2", "--n-range", "0:8"], 1, "--n-range"),
    (["tk", "--p", "2", "--n-range=-3:-1"], 1, "--n-range"),
    # t and C are finite; gamma >= 0, depth >= 2, y >= 1 and budget >= 1
    (["diagnostics", "--p", "2", "--n", "4", "--t", "nan"], 1, "--t"),
    (["diagnostics", "--p", "2", "--n", "4", "--t=-inf"], 1, "--t"),
    # Q <= q^{n/2}/n^t needs t >= 0: the Bombieri-Vinogradov walk once
    # went past n, without end on a cache of degree >= n
    (["diagnostics", "--p", "2", "--n", "4", "--t=-20"], 1, "--t"),
    (["chowla", "--p", "2", "--C", "nan", "--n-range", "4:5"], 1, "--C"),
    (["chowla", "--p", "2", "--C", "inf", "--n-range", "4:5"], 1, "--C"),
    (["correlate", "--p", "2", "--n", "4", "--gamma", "-1"], 1, "--gamma"),
    (["mainterm", "--p", "2", "--gamma", "-1"], 1, "--gamma"),
    (["correlate", "--p", "2", "--n", "4", "--depth", "-1"], 1, "--depth"),
    (["mainterm", "--p", "2", "--depth", "1"], 1, "--depth"),
    (["chowla", "--p", "2", "--y", "-1"], 1, "--y"),
    (["chowla", "--p", "2", "--y", "0", "--n-range", "4:5"], 1, "--y"),
    (["correlate", "--p", "2", "--n", "4", "--budget", "-1"], 1, "--budget"),
    (["correlate", "--p", "2", "--n", "4", "--budget", "0"], 1, "--budget"),
    # a finite-degree main term refuses a shift of degree >= n, as
    # correlate does
    (["mainterm", "--p", "2", "--n", "3", "--f", "phi_ratio",
      "--g", "phi_ratio", "--h2", "x^5"], 1, None),
    # a main term whose walk reaches a q^-d below the normal floats
    # without decay bounds is refused (once an OverflowError from N_d)
    (["mainterm", "--p", "2", "--n", "1040", "--f", "moebius",
      "--g", "moebius", "--h1", "0", "--h2", "1"], 1, None),
    (["mainterm", "--p", "3", "--n", "700", "--f", "moebius",
      "--g", "moebius", "--h1", "0", "--h2", "1"], 1, None),
    (["mainterm", "--p", "251", "--n", "140", "--f", "moebius",
      "--g", "one", "--h1", "0", "--h2", "1"], 1, None),
    (["mainterm", "--p", "2", "--n", "inf", "--f", "liouville_trunc:1040",
      "--g", "one", "--h1", "0", "--h2", "1"], 1, None),
]


class TestHostileInputs:
    @pytest.mark.parametrize("argv, code, flag", HOSTILE,
                             ids=[" ".join(a) for a, _, _ in HOSTILE])
    def test_exit_code_within_seconds(self, argv, code, flag, tmp_path,
                                      monkeypatch, capsys):
        def give_up(signum, frame):
            raise TimeoutError("no exit code within 5 s")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            rc = run(argv, tmp_path, monkeypatch)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == code
        if flag is not None:
            assert f"invalid input: {flag}: " in capsys.readouterr().err

    def test_negative_t_on_a_cache_of_degree_12(self, tmp_path, monkeypatch,
                                                capsys):
        # on an empty cache the walk stopped at the first degree past the
        # table; a saved degree-12 table let it run for minutes
        assert run(["sieve", "--p", "2", "--max-deg", "12", "--out", "s"],
                   tmp_path, monkeypatch) == 0
        self.test_exit_code_within_seconds(
            ["diagnostics", "--p", "2", "--n", "4", "--t=-20"], 1, "--t",
            tmp_path, monkeypatch, capsys)


# a key's hostile values; the budget is never the huge one, so that the
# small budget every fuzzed run starts with bounds its work
_HOSTILE_VALUES = ["nan", "inf", "-1", str(10**30), "", "x^99999",
                   "missing/none.txt"]
_VALID = dict(EVERY_COMMAND)


def _fuzzed_run(command):
    """The command, with up to two of its keys (or --config) given a
    hostile value and each other key its small run's value or none."""
    keys = ["config", *_COMMANDS[command][1]]
    valid = st.fixed_dictionaries({k: st.sampled_from([None, v])
                                   for k, v in _VALID[command].items()})
    hostile = st.dictionaries(
        st.sampled_from(keys), st.sampled_from(_HOSTILE_VALUES), max_size=2
    ).filter(lambda d: d.get("budget") != str(10**30))
    return st.tuples(st.just(command), valid, hostile)


class TestHostileFuzz:
    OLD = b"an artifact of an earlier run\n"

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(_COMMANDS)).flatmap(_fuzzed_run))
    @example(("mainterm", {"f": "phi_ratio", "g": "phi_ratio", "h2": "1"},
              {"n": str(10**30)}))  # once a walk without end
    @example(("factor", {"poly": "x^4+x+2"}, {"out": "missing/none.txt"}))
    @example(("sieve", {}, {"max_deg": str(10**30)}))
    @example(("charfn", {"n": "6"}, {"t_grid": "nan"}))
    def test_exit_code_and_artifact_pair(self, run_values):
        command, valid, hostile = run_values
        values = {k: v for k, v in {**valid, **hostile}.items() if v is not None}
        argv = [command, "--cache-dir", "cache", "--budget", "4096",
                "--out", "o", *(f"--{k.replace('_', '-')}={v}"
                                for k, v in values.items())]

        def give_up(signum, frame):
            # not TimeoutError: an OSError naming no file may escape main
            raise AssertionError(f"no exit code within 5 s: {argv}")

        previous = signal.signal(signal.SIGALRM, give_up)
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            for ext in (".csv", ".json"):
                (work / f"o{ext}").write_bytes(self.OLD)
            os.chdir(work)
            signal.alarm(5)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv)
            except OSError as exc:
                # the one exception main lets out: an OSError naming no file
                assert exc.filename is None
                return
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
                os.chdir(home)
            assert rc in (0, 1, 2)
            assert not list(work.glob("**/*.tmp"))
            written = [f for f in work.glob("**/*.csv")
                       if f.read_bytes() != self.OLD]
            if rc != 0:
                # the earlier pair stays, and nothing else is written
                assert not written
                assert (work / "o.json").read_bytes() == self.OLD
                return
            assert len(written) == 1
            rows = read_csv(written[0])
            mirror = json.loads(Path(str(written[0])[:-4] + ".json").read_text())
            assert rows == [{k: "" if v is None else str(v)
                             for k, v in r.items()} for r in mirror]

class TestGridLength:
    def test_default_grid(self):
        assert _parse_t_grid("-3:3:0.5") == [x / 2 for x in range(-6, 7)]

    @pytest.mark.parametrize("points", [MAX_GRID_POINTS, MAX_GRID_POINTS + 1])
    def test_cap_on_both_forms(self, points):
        # the cap is counted before the list is built: a range of any
        # length is refused at once, a comma list one past the cap too
        texts = [f"0:{points - 1}:1", ",".join(["0.5"] * points)]
        for text in texts:
            if points <= MAX_GRID_POINTS:
                assert len(_parse_t_grid(text)) == points
            else:
                with pytest.raises(ValueError, match="points"):
                    _parse_t_grid(text)
