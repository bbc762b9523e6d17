import csv
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import nowcastsim
from nowcastsim import cli
from nowcastsim.cli import main
from nowcastsim.population import (WORK_STATUSES, SynthConfig, generate_synthetic,
                                   save_population)


def read_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestSchedulesCommand:
    def test_pup_lookup(self, capsys):
        code = main(["schedules", "pup", "--earnings", "450",
                     "--date", "2020-11-15"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "350.00"

    def test_twss_lookup(self, capsys):
        code = main(["schedules", "twss", "--earnings", "500",
                     "--date", "2020-05-15"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "350.00"  # 70% in the 500-586 band

    def test_ewss_lookup(self, capsys):
        code = main(["schedules", "ewss", "--earnings", "180",
                     "--date", "2020-11-01"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "203.00"

    def test_date_before_scheme_exits_one(self, capsys):
        code = main(["schedules", "pup", "--earnings", "100",
                     "--date", "2020-03-01"])
        assert code == 1
        assert "2020-03-13" in capsys.readouterr().err

    @pytest.mark.parametrize("earnings", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_earnings_is_a_usage_error(self, capsys, earnings):
        with pytest.raises(SystemExit) as exc:
            main(["schedules", "pup", f"--earnings={earnings}", "--date", "2020-11-15"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --earnings: invalid finite value: '{earnings}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("date, reason", [("2020-13-01", "month must be in 1..12"),
                                              ("15/11/2020", "Invalid isoformat string")])
    def test_bad_date_is_a_usage_error_naming_the_argument(self, capsys, date, reason):
        with pytest.raises(SystemExit) as exc:
            main(["schedules", "pup", "--earnings", "450", "--date", date])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert f"argument --date: must be an ISO date, got '{date}' ({reason}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_ceib_lookup(self, capsys):
        code = main(["schedules", "ceib", "--date", "2020-05-05"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "350.00"

    def test_ceib_with_earnings_pays_the_banded_rate(self, capsys):
        """A CEIB recipient's benefit is banded on previous earnings
        (taxben.benefit_weekly_cents), so --earnings picks the band."""
        code = main(["schedules", "ceib", "--earnings", "100", "--date", "2020-11-15"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "203.00"

    def test_negative_earnings_is_a_usage_error(self, capsys):
        """Not a negative subsidy: every instrument bands amounts >= 0."""
        with pytest.raises(SystemExit) as exc:
            main(["schedules", "twss", "--earnings", "-5", "--date", "2020-05-15"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "argument --earnings: must be >= 0, got -5" in captured.err
        assert captured.out == ""

    def test_earnings_past_exact_cents_exits_one(self, capsys):
        code = main(["schedules", "pup", "--earnings", "1e17", "--date", "2020-11-15"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot convert 1e+17 euros to cents" in err
        assert "Traceback" not in err


class TestValidateCommand:
    def test_valid_inputs(self, data_dir, capsys):
        code = main(["validate",
                     "--scenario", os.path.join(data_dir, "scenario.cfg")])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_broken_population_reports_every_violation(self, data_dir, tmp_path,
                                                       capsys):
        pop = generate_synthetic(SynthConfig(households=5), 1)
        save_population(pop, tmp_path)
        lines = (tmp_path / "households.csv").read_text().splitlines()
        # break the first household's weight and orphan a person
        lines[1] = lines[1].replace("1,1.0", "1,0.0", 1)
        (tmp_path / "households.csv").write_text("\n".join(lines) + "\n")
        plines = (tmp_path / "persons.csv").read_text().splitlines()
        plines[1] = plines[1].replace(",1,", ",99,", 1)
        (tmp_path / "persons.csv").write_text("\n".join(plines) + "\n")
        code = main(["validate",
                     "--scenario", os.path.join(data_dir, "scenario.cfg"),
                     "--population", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "weight" in err
        assert "99" in err


    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_population_without_households_exits_one(self, data_dir, tmp_path, capsys,
                                                      command):
        """Header-only files parse to empty tables; both commands reject them
        the same way, before run ranks anyone into deciles."""
        save_population(generate_synthetic(SynthConfig(households=2), 1), tmp_path)
        for name in ("households.csv", "persons.csv"):
            path = tmp_path / name
            path.write_text(path.read_text().splitlines()[0] + "\n")
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        code = main([command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
                     "--population", str(tmp_path), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.endswith("households.csv: no households\n")
        assert not (tmp_path / "out").exists()

    def test_more_unknown_texts_than_int8_codes_are_all_reported(self, data_dir, tmp_path,
                                                                 capsys):
        """468 persons, each with its own unknown sex text: more texts than
        an int8 code indexes, so the loader reads them with wide codes and
        every one is reported, not numpy's `could not convert string
        'bad126' to int8`."""
        save_population(generate_synthetic(SynthConfig(households=200), 1), tmp_path)
        rows = list(csv.reader((tmp_path / "persons.csv").read_text().splitlines()))
        for i, row in enumerate(rows[1:]):
            row[rows[0].index("sex")] = f"bad{i}"
        with open(tmp_path / "persons.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                     "--population", str(tmp_path)])
        assert code == 1
        assert len(rows) == 469
        assert capsys.readouterr().err.splitlines() == [
            f"population: person {i + 1}: column 'sex': bad value 'bad{i}'" for i in range(468)]

    @pytest.mark.parametrize("seed_args, seed", [(["--seed", "5"], 5), ([], 42)])
    def test_generated_population_uses_runs_seed(self, data_dir, tmp_path, capsys,
                                                  monkeypatch, seed_args, seed):
        """validate generates and checks the population run would: from
        --seed, else from the scenario file's seed (42 in the shipped one)."""
        seeds = []
        generate = cli.population.generate_synthetic
        monkeypatch.setattr(cli.population, "generate_synthetic",
                            lambda cfg, s: seeds.append(s) or generate(cfg, s))
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 10\n")
        code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                     "--synth-config", str(synth), *seed_args])
        assert code == 0 and seeds == [seed]
        assert capsys.readouterr().out == "all inputs valid\n"


def calibrating_scenario(data_dir, tmp_path) -> str:
    """The shipped scenario, written to `tmp_path` with controls that make
    the nowcast hire, fire and uprate."""
    shutil.copy(os.path.join(data_dir, "scenario.cfg"), tmp_path)
    shutil.copy(os.path.join(data_dir, "control_totals.csv"), tmp_path)
    with open(tmp_path / "control_totals.csv", "a", encoding="utf-8") as fh:
        fh.write("employment_rate:25-34,2019-12-01,0.55\n"
                 "employment_rate:45-54,2019-12-01,0.9\nwage_index,2019-12-01,1.03\n")
    return str(tmp_path / "scenario.cfg")


class TestRunCommand:
    def test_run_twice_is_byte_identical(self, data_dir, tmp_path):
        args = ["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                "--seed", "11"]
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 120\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--synth-config", str(synth), "--out", str(out1)]) == 0
        assert main(args + ["--synth-config", str(synth), "--out", str(out2)]) == 0
        files1, files2 = read_dir(out1), read_dir(out2)
        assert files1.keys() == files2.keys()
        assert files1 == files2

    def test_seed_defaults_to_the_scenario_files(self, data_dir, tmp_path):
        """Without --seed, run generates and simulates with the scenario
        file's seed (42 in the shipped one)."""
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 60\n")
        args = ["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                "--synth-config", str(synth)]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert main(args + ["--seed", "42", "--out", str(tmp_path / "42")]) == 0
        assert main(args + ["--seed", "41", "--out", str(tmp_path / "41")]) == 0
        default = read_dir(tmp_path / "default")
        assert default == read_dir(tmp_path / "42")
        assert default != read_dir(tmp_path / "41")

    def test_threads_do_not_change_output(self, data_dir, tmp_path):
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 120\n")
        args = ["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                "--seed", "11", "--synth-config", str(synth)]
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert read_dir(out1) == read_dir(out2)

    def test_empty_deciles_print_nan_without_a_warning(self, data_dir, tmp_path):
        """Four households leave deciles empty: their means print nan, and
        the run raises no RuntimeWarning."""
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                         "--synth-config", str(synth), "--out", str(tmp_path / "out")]) == 0
        assert ",nan," in (tmp_path / "out" / "decile_means.csv").read_text()

    def test_expected_outputs_exist(self, data_dir, tmp_path):
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 100\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                     "--seed", "2", "--synth-config", str(synth),
                     "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert {"average_income.csv", "gini.csv", "redistribution.csv",
                "decile_means.csv", "manifest.json"} <= names
        assert any(n.startswith("summary_") for n in names)

    def test_survey_row_order_does_not_change_output(self, data_dir, tmp_path):
        """Shuffled households.csv and persons.csv rows give the same
        tables, with controls that make the nowcast hire, fire and uprate."""
        calibrating_scenario(data_dir, tmp_path)
        save_population(generate_synthetic(SynthConfig(households=150, weight_jitter=True), 4),
                        tmp_path / "sorted")
        (tmp_path / "shuffled").mkdir()
        for name in ("households.csv", "persons.csv"):
            header, *rows = (tmp_path / "sorted" / name).read_text().splitlines(keepends=True)
            rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
            (tmp_path / "shuffled" / name).write_text("".join([header, *rows]))
        outputs = []
        for population in ("sorted", "shuffled"):
            out = tmp_path / f"out_{population}"
            assert main(["run", "--scenario", str(tmp_path / "scenario.cfg"),
                         "--population", str(tmp_path / population), "--out", str(out)]) == 0
            outputs.append(read_dir(out))
            del outputs[-1]["manifest.json"]
        assert outputs[0] == outputs[1]

    def test_numpys_simd_level_does_not_change_output(self, data_dir, tmp_path):
        """A run in a child process with numpy's SIMD levels above its x86
        baseline disabled writes the bytes a native run writes, with controls
        that make the nowcast align and take the employees' weighted median.
        numpy accepts names it does not know, so the child must show the
        levels the native process has as off."""
        levels = {"X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"}
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(sorted(levels)),
               "PYTHONPATH": os.path.dirname(os.path.dirname(nowcastsim.__file__))}
        probe = [sys.executable, "-c", "from numpy._core._multiarray_umath import "
                 "__cpu_features__ as f; print(*(name for name, on in f.items() if on))"]
        native, reduced = (subprocess.run(probe, env=e, capture_output=True, encoding="utf-8")
                           for e in (None, env))
        if native.returncode or reduced.returncode:
            pytest.skip("this numpy's CPU features cannot be read, or rejects "
                        f"NPY_DISABLE_CPU_FEATURES: {(native.stderr + reduced.stderr).strip()}")
        if not levels & set(native.stdout.split()):
            pytest.skip("this CPU has none of the levels to disable")
        assert not levels & set(reduced.stdout.split())
        save_population(generate_synthetic(SynthConfig(households=300, weight_jitter=True), 4),
                        tmp_path / "pop")
        args = ["run", "--scenario", calibrating_scenario(data_dir, tmp_path),
                "--population", str(tmp_path / "pop")]
        assert main(args + ["--out", str(tmp_path / "native")]) == 0
        done = subprocess.run([sys.executable, "-m", "nowcastsim.cli", *args,
                               "--out", str(tmp_path / "reduced")], env=env,
                              capture_output=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
        assert read_dir(tmp_path / "reduced") == read_dir(tmp_path / "native")

    def test_null_scenario_produces_zero_deltas(self, tmp_path, capsys):
        controls = tmp_path / "controls.csv"
        controls.write_text("stratum_key,date,target\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "[scenario]\ncontrols = controls.csv\nseed = 5\n"
            "[wave:before]\ndate = 2019-12-01\n"
            "[wave:w1]\ndate = 2020-05-05\n"
            "[wave:w2]\ndate = 2020-11-15\n"
        )
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 80\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(cfg), "--synth-config", str(synth),
                     "--out", str(out)]) == 0
        gini_lines = (out / "gini.csv").read_text().splitlines()
        change = [l for l in gini_lines if l.startswith("change:")]
        assert len(change) == 2
        for line in change:
            values = line.split(",")[1:]
            assert all(float(v) == 0.0 for v in values)

    def test_unknown_sector_in_controls_names_it(self, tmp_path, capsys):
        controls = tmp_path / "controls.csv"
        controls.write_text("stratum_key,date,target\npup:space mining,2020-05-05,5\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\ncontrols = controls.csv\n"
                       "[wave:before]\ndate = 2019-12-01\n")
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 40\n")
        code = main(["run", "--scenario", str(cfg), "--synth-config", str(synth),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "space mining" in capsys.readouterr().err

    def test_infeasible_calibration_exits_two(self, tmp_path, capsys):
        controls = tmp_path / "controls.csv"
        controls.write_text(
            "stratum_key,date,target\npup:construction,2020-05-05,10000000\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\ncontrols = controls.csv\n"
                       "[wave:before]\ndate = 2019-12-01\n"
                       "[wave:w1]\ndate = 2020-05-05\npup = on\n")
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 40\n")
        code = main(["run", "--scenario", str(cfg), "--synth-config", str(synth),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err


    def test_infeasible_date_in_a_worker_thread_exits_as_at_one_thread(self, tmp_path, capsys):
        """Two later dates are infeasible. At --threads 2 and 3 a worker
        thread runs the first of them; the run reports that date's
        AlignmentError as the one-thread run does, and every thread it
        started has ended."""
        (tmp_path / "controls.csv").write_text(
            "stratum_key,date,target\npup:construction,2020-06-06,10000000\n"
            "pup:construction,2020-08-28,20000000\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\ncontrols = controls.csv\n[wave:before]\ndate = 2019-12-01\n"
                       "[wave:w1]\ndate = 2020-05-05\n[wave:w2]\ndate = 2020-06-06\npup = on\n"
                       "[wave:w3]\ndate = 2020-08-28\npup = on\n")
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 40\n")
        alive, outcomes = threading.enumerate(), []
        for threads in ("1", "2", "3"):
            code = main(["run", "--scenario", str(cfg), "--synth-config", str(synth),
                         "--out", str(tmp_path / f"out{threads}"), "--threads", threads])
            outcomes.append((code, capsys.readouterr().err))
            assert threading.enumerate() == alive
        assert outcomes[0][0] == 2 and "infeasible calibration" in outcomes[0][1]
        assert outcomes[1:] == outcomes[:1] * 2
        (tmp_path / "controls.csv").write_text(
            "stratum_key,date,target\npup:construction,2020-08-28,20000000\n")
        assert main(["run", "--scenario", str(cfg), "--synth-config", str(synth),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err != outcomes[0][1]  # the later date's message differs


def write_bad_scenario(tmp_path, scenario_lines, wave_lines):
    (tmp_path / "controls.csv").write_text("stratum_key,date,target\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[scenario]\ncontrols = controls.csv\n{scenario_lines}"
                   f"[wave:w1]\n{wave_lines}")
    return cfg


class TestBadScenarioFields:
    """A bad scenario field exits 1 from run and validate, naming the file
    and the [section] key."""

    CASES = [
        ("capital_booking = x\n", "date = 2020-05-05\n", "[scenario] capital_booking"),
        ("employer_topup = 2\n", "date = 2020-05-05\n", "[scenario] employer_topup"),
        ("seed = abc\n", "date = 2020-05-05\n", "[scenario] seed"),
        ("", "date = 2020-05-32\n", "[wave:w1] date"),
        ("employer_top_up = 0.9\n", "date = 2020-05-05\n", "[scenario] employer_top_up"),
        ("", "date = 2020-05-05\npupp = on\n", "[wave:w1] pupp"),
        ("seed = 1\nseed = 2\n", "date = 2020-05-05\n",
         "bad.cfg:4: [scenario] seed is given twice"),
        ("", "date = 2020-05-05\n[wave:w1]\npup = on\n", "bad.cfg:5: [wave:w1] is given twice"),
        ("", "date = 2020-05-05\npup\n", "bad.cfg:5: expected key = value"),
        ("", "date = 2020-05-05\n[wave:05/05]\ndate = 2020-06-06\n",
         "bad.cfg:5: [wave:05/05] a wave label must be non-empty"),
    ]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario_lines, wave_lines, where", CASES)
    def test_exits_one_with_location(self, tmp_path, capsys, command, scenario_lines,
                                     wave_lines, where):
        cfg = write_bad_scenario(tmp_path, scenario_lines, wave_lines)
        args = [command, "--scenario", str(cfg)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and where in err
        assert not (tmp_path / "out").exists()


def test_percent_in_scenario_value_is_literal(data_dir, tmp_path, capsys):
    shutil.copy(os.path.join(data_dir, "control_totals.csv"), tmp_path / "a%b.csv")
    edited_copy(data_dir, tmp_path / "data", "scenario.cfg",
                "controls = control_totals.csv", f"controls = {tmp_path / 'a%b.csv'}")
    assert main(["validate", "--scenario", str(tmp_path / "data" / "scenario.cfg")]) == 0
    assert capsys.readouterr().out == "all inputs valid\n"


@pytest.mark.parametrize("name", ["sector_groups.csv", "policy/tax_system.cfg",
                                  "population/persons.csv", "scenario.cfg"])
def test_input_that_is_not_utf8_is_named(data_dir, tmp_path, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    save_population(generate_synthetic(SynthConfig(households=5), 1), data / "population")
    path = data / name
    lines = path.read_bytes().split(b"\n")
    lines[1] += b"\xe9"
    path.write_bytes(b"\n".join(lines))
    assert main(["validate", "--scenario", str(data / "scenario.cfg"), "--data-dir", str(data),
                 "--policy-dir", str(data / "policy"), "--population",
                 str(data / "population")]) == 1
    err = capsys.readouterr().err
    assert f"{os.path.basename(name)}:2: not UTF-8 text (byte 0xe9: " in err
    assert "Traceback" not in err


def test_commands_read_no_file_in_the_locale_encoding(data_dir, tmp_path):
    """Under -X warn_default_encoding every text read or write that leaves
    the encoding to the locale warns, and -W error makes that fatal."""
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 30\n", encoding="utf-8")
    scenario = os.path.join(data_dir, "scenario.cfg")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nowcastsim.__file__))}
    for args in (["validate", "--scenario", scenario, "--synth-config", str(synth)],
                 ["run", "--scenario", scenario, "--synth-config", str(synth),
                  "--out", str(tmp_path / "out")],
                 ["schedules", "pup", "--earnings", "450", "--date", "2020-11-15"]):
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W",
                               "error::EncodingWarning", "-m", "nowcastsim.cli", *args],
                              env=env, capture_output=True, text=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr


class TestStartUp:
    """A fresh process that imports nowcastsim.cli: OpenBLAS, which numpy
    loads, starts its thread pool unless told one thread, and the engine
    makes no BLAS call."""

    @staticmethod
    def child(code, *args, openblas_threads=None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(nowcastsim.__file__))
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        done = subprocess.run([sys.executable, "-c", "import os, sys\nimport nowcastsim.cli\n"
                               + code, *args], env=env, capture_output=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_openblas_threads_default_to_one(self, preset, expected):
        value = self.child('print(os.environ["OPENBLAS_NUM_THREADS"])', openblas_threads=preset)
        assert value == expected

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_import_starts_no_thread(self):
        assert self.child('print(len(os.listdir("/proc/self/task")))') == "1"

    def test_a_one_thread_run_imports_no_executor(self, data_dir, tmp_path):
        """Nor does a two-thread run, which starts its threads with `threading`:
        neither imports concurrent.futures nor the logging it loads."""
        synth = tmp_path / "synth.cfg"
        synth.write_text("households = 30\n", encoding="utf-8")
        code = ("for threads in ('1', '2'):\n"
                "    assert nowcastsim.cli.main(['run', '--threads', threads, *sys.argv[1:]]) == 0\n"
                "    print({'concurrent.futures', 'logging'} & set(sys.modules))")
        printed = self.child(code, "--scenario", os.path.join(data_dir, "scenario.cfg"),
                             "--synth-config", str(synth), "--out", str(tmp_path / "out"))
        assert [line for line in printed.splitlines() if not line.startswith("wrote")] == \
            ["set()", "set()"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(data_dir, tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
              "--out", str(tmp_path / "out"), "--threads", threads])
    assert exc.value.code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSynthCommand:
    def test_synth_writes_population(self, tmp_path, capsys):
        out = tmp_path / "pop"
        code = main(["synth", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "persons.csv").exists()
        assert (out / "households.csv").exists()

    def test_synth_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "3", "--out", str(a)])
        main(["synth", "--seed", "3", "--out", str(b)])
        assert filecmp.cmp(a / "persons.csv", b / "persons.csv", shallow=False)


def test_no_command_prints_help_and_exits_one(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert out.startswith("usage: ") and all(
        command in out for command in ("run", "validate", "schedules", "synth"))


def test_print_config(capsys):
    """Only defaults the parser applies: --scenario has none, and run's seed
    comes from the scenario file."""
    assert main(["--print-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["policy_dir"] == cli.DEFAULT_POLICY_DIR
    assert config["data_dir"] == cli.DEFAULT_DATA_DIR
    assert "scenario" not in config
    assert config["seed"] == {"run": "the scenario file's seed", "synth": 0}
    assert config["threads"] == 1
    for argv in (["run", "--out", "unused"], ["validate"]):
        with pytest.raises(SystemExit):
            main(argv)


def test_missing_scenario_file_is_io_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "nope.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_instrument_without_control_rows_warns(tmp_path, capsys, command):
    (tmp_path / "controls.csv").write_text("stratum_key,date,target\n")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("[scenario]\ncontrols = controls.csv\n"
                   "[wave:before]\ndate = 2019-12-01\n"
                   "[wave:w1]\ndate = 2020-05-05\nsubsidy = twss\n")
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 40\n")
    args = [command, "--scenario", str(cfg), "--synth-config", str(synth)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "warning: wave w1 switches subsidy on" in err and "2020-05-05" in err
    if command == "run":  # the warning goes to stderr only
        assert not any("warning" in (tmp_path / "out" / name).read_text()
                       for name in os.listdir(tmp_path / "out"))


def edit_in_place(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def edited_copy(src, dst, name, old, new):
    shutil.copytree(src, dst)
    edit_in_place(dst / name, old, new)


@pytest.mark.parametrize("count, warns", [("5101", False), ("5102", True)])
def test_ceib_margins_are_cross_checked(data_dir, tmp_path, capsys, count, warns):
    """The ceib:<sector> rows and the in-work ceib_cases rows count the same
    cases; a date where they differ by more than one case gets a warning
    from validate and run, and recipients stay as they were."""
    edited_copy(data_dir, tmp_path / "data", "control_totals.csv",
                "ceib:manufacturing,2020-05-05,5100", f"ceib:manufacturing,2020-05-05,{count}")
    shipped = os.path.join(data_dir, "scenario.cfg")
    edited = str(tmp_path / "data" / "scenario.cfg")
    assert main(["validate", "--scenario", shipped]) == 0
    assert "warning" not in capsys.readouterr().err  # 2020-12-22 differs by one case
    assert main(["validate", "--scenario", edited]) == 0
    message = ("warning: control_totals.csv: the ceib:<sector> rows at 2020-05-05 sum to "
               f"{33800 + int(count)} cases, the in-work ceib_cases rows to 38900")
    assert capsys.readouterr().err == (message + "\n" if warns else "")
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 80\n")
    run = ["run", "--synth-config", str(synth), "--seed", "4", "--scenario"]
    assert main(run + [shipped, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(run + [edited, "--out", str(tmp_path / "b")]) == 0
    assert (message in capsys.readouterr().err) is warns
    a, b = read_dir(tmp_path / "a"), read_dir(tmp_path / "b")
    assert a.pop("manifest.json") != b.pop("manifest.json")  # the controls digest
    assert a == b


@pytest.mark.parametrize("command", ["validate", "run"])
def test_nowcast_rows_past_the_first_wave_date_warn(data_dir, tmp_path, capsys, command):
    """The nowcast reads employment_rate and wage_index rows only at the
    first wave's date: validate and run warn once per kind and other date,
    and the tables run writes stay the same."""
    shutil.copytree(data_dir, tmp_path / "data")
    with open(tmp_path / "data" / "control_totals.csv", "a", encoding="utf-8") as fh:
        fh.write("employment_rate:25-34,2020-05-05,0.5\nemployment_rate:35-44,2020-05-05,0.6\n"
                 "wage_index,2020-06-06,1.10\nwage_index,2019-12-01,1.0\n")
    message = ("warning: control_totals.csv: the {} rows at {} are never read; the nowcast "
               "reads them only at the first wave's date, 2019-12-01\n")
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 80\n")
    for name, err in (("shipped", ""), ("edited", message.format("employment_rate:<band>",
                                                                  "2020-05-05")
                                        + message.format("wage_index", "2020-06-06"))):
        scenario = os.path.join(data_dir if name == "shipped" else tmp_path / "data",
                                "scenario.cfg")
        args = [command, "--scenario", scenario, "--synth-config", str(synth), "--seed", "4"]
        assert main(args + (["--out", str(tmp_path / name)] if command == "run" else [])) == 0
        assert capsys.readouterr().err == err
    if command == "run":
        a, b = read_dir(tmp_path / "shipped"), read_dir(tmp_path / "edited")
        assert a.pop("manifest.json") != b.pop("manifest.json")  # the controls digest
        assert a == b


def test_wage_index_without_an_employee_exits_two(data_dir, tmp_path, capsys):
    """A wage index has no employee to uprate in a population of one
    inactive person: run exits 2 as an infeasible calibration, with neither
    a warning nor a traceback."""
    shutil.copytree(data_dir, tmp_path / "data")
    with open(tmp_path / "data" / "control_totals.csv", "a", encoding="utf-8") as fh:
        fh.write("wage_index,2019-12-01,1.05\n")
    persons = generate_synthetic(SynthConfig(households=1), 1).persons
    assert persons.work_status.tolist() == [WORK_STATUSES.index("inactive")]
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 1\n")
    args = ["--scenario", str(tmp_path / "data" / "scenario.cfg"),
            "--synth-config", str(synth), "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", *args]) == 0
        assert main(["run", *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("infeasible calibration: wage_index at 2019-12-01: "
                                       "the population has no employee\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_covid_state_read_but_ignored_warns(data_dir, tmp_path, capsys, command):
    """persons.csv's covid_state is validated, but the engine starts every
    person at 'none': validate and run say so once on stderr when a person
    holds another state, and the tables run writes stay the same."""
    save_population(generate_synthetic(SynthConfig(households=80), 4), tmp_path / "none")
    shutil.copytree(tmp_path / "none", tmp_path / "held")
    path = tmp_path / "held" / "persons.csv"
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    column = rows[0].index("covid_state")
    rows[1][column], rows[2][column] = "ceib_recipient", "wage_subsidised"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    message = ("warning: persons.csv: covid_state is not 'none' for 2 person(s); the engine "
               "ignores it and starts every person at 'none'\n")
    for name, err in (("none", ""), ("held", message)):
        args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
                "--population", str(tmp_path / name), "--seed", "4"]
        assert main(args + (["--out", str(tmp_path / f"out-{name}")] if command == "run"
                            else [])) == 0
        assert capsys.readouterr().err == err
    if command == "run":
        a, b = read_dir(tmp_path / "out-none"), read_dir(tmp_path / "out-held")
        assert a.pop("manifest.json") != b.pop("manifest.json")  # the population digest
        assert a == b


def subsidy_edit(date, scheme):
    wave = f"[wave:{date}]\ndate = {date}\npup = on\nceib = on\nsubsidy = "
    return "scenario.cfg", wave + "auto", wave + scheme


# EWSS switched on before its first rates, TWSS after its life
OUT_OF_SCHEDULE = [subsidy_edit("2020-05-05", "ewss"), subsidy_edit("2020-11-15", "twss")]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_instrument_out_of_schedule_exits_one_before_the_population(
        data_dir, tmp_path, capsys, monkeypatch, command):
    """TWSS switched on after its life, and EWSS before its first rates: both
    named with the wave, and neither command reads the population."""
    setup = shipped_inputs_with(*OUT_OF_SCHEDULE, synth="households = 40\n")
    args = [command, *setup(data_dir, tmp_path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(cli, "_load_population",
                        lambda *_: pytest.fail("the population was loaded"))
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "scenario: scenario.cfg: [wave:2020-05-05] ewss rates start 2020-07-01, got 2020-05-05\n"
        "scenario: scenario.cfg: [wave:2020-11-15] twss not in force on 2020-11-15 "
        "(life 2020-03-13 to 2020-09-01)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_more_children_than_members_exits_one(data_dir, tmp_path, capsys, command):
    """A single-person household with five children under 14 is named by
    validate and by run, which raises no RuntimeWarning on the way."""
    save_population(generate_synthetic(SynthConfig(households=30), 1), tmp_path / "pop")
    path = tmp_path / "pop" / "households.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    row = next(r for r in rows[1:] if ";" not in r[header.index("member_ids")])
    row[header.index("n_children_under14")] = "5"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--population", str(tmp_path / "pop")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    n_0_4 = row[header.index("n_children_0_4")]
    assert (f"household {row[0]}: child counts need n_children_0_4 <= n_children_under14 "
            f"<= members, got {n_0_4}, 5 and 1") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("old, new, where", [
    ("population_total,4900000", "population_total,0",
     "national_reference.csv:19: population_total must be > 0"),
    ("mortgage_count,730000", "mortgage_count,-5",
     "national_reference.csv:20: mortgage_count must be > 0"),
    ("sector_employment:education,195000", "sector_employment:education,-0.0",
     "national_reference.csv:15: sector_employment:education must be > 0"),
])
def test_national_reference_count_not_above_zero_exits_one(data_dir, tmp_path, capsys,
                                                           command, old, new, where):
    """Each national count divides or sets a target: one <= 0 is a fault."""
    edited_copy(data_dir, tmp_path / "data", "national_reference.csv", old, new)
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--data-dir", str(tmp_path / "data")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, key", [
    ("mortgage_count,730000\n", "mortgage_count"),
    ("sector_employment:education,195000\n", "sector_employment:education"),
])
def test_national_reference_without_a_key_is_named(data_dir, tmp_path, capsys, line, key):
    edited_copy(data_dir, tmp_path / "data", "national_reference.csv", line, "")
    assert main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--data-dir", str(tmp_path / "data")]) == 1
    assert f"national_reference.csv: no row for key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_childcare_grid_without_a_cell_exits_one(data_dir, tmp_path, capsys, command):
    """Each (family type, decile) cell calibrates its users' costs: a grid
    without one would leave them at their uncalibrated cost."""
    edited_copy(data_dir, tmp_path / "data", "childcare_cost_grid.csv", "lone_parent,3,3.3\n", "")
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--data-dir", str(tmp_path / "data")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "childcare_cost_grid.csv: no row for family_type 'lone_parent', decile 3" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_non_numeric_national_reference_is_located(data_dir, tmp_path, capsys):
    edited_copy(data_dir, tmp_path / "data", "national_reference.csv",
                "sector_employment:construction,145000", "sector_employment:construction,lots")
    code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--data-dir", str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert "national_reference.csv:5: bad value 'lots'" in err


@pytest.mark.parametrize("old, new, where", [
    ("si_rate = 0.04", "si_rate = lots", "tax_system.cfg:5: si_rate is not a number"),
    ("band = 35300:0.40", "band = 35300:forty", "tax_system.cfg:3: band rate is not a number"),
])
def test_non_numeric_tax_system_is_located(policy_dir, data_dir, tmp_path, capsys,
                                           old, new, where):
    edited_copy(policy_dir, tmp_path / "policy", "tax_system.cfg", old, new)
    code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--policy-dir", str(tmp_path / "policy")])
    assert code == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("old, new, where", [
    ("band = 0:0.20", "band = 100:0.20", "tax_system.cfg: no band starts at threshold 0"),
    ("band = 35300:0.40", "band = 35300:1.5",
     "tax_system.cfg:3: band rate must lie in [0, 1], got 35300:1.5"),
    ("band = 35300:0.40", "band = 0:0.40", "tax_system.cfg:3: second band at threshold 0.00"),
    ("band = 35300:0.40", "band = -5:0.40",
     "tax_system.cfg:3: band threshold must be >= 0, got -5:0.40"),
])
def test_bad_tax_band_is_located(policy_dir, data_dir, tmp_path, capsys, command, old, new,
                                 where):
    edited_copy(policy_dir, tmp_path / "policy", "tax_system.cfg", old, new)
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--policy-dir", str(tmp_path / "policy")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert f"{where}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


AMOUNT = "is not an amount in euros under 2**53 cents"


@pytest.mark.parametrize("directory, name, old, new, where", [
    ("policy", "tax_system.cfg", "band = 35300:0.40", "band = 1e17:0.40",
     f"tax_system.cfg:3: band threshold {AMOUNT}: '1e17'"),
    ("policy", "tax_system.cfg", "credit = 3300", "credit = 1e17",
     f"tax_system.cfg:4: credit {AMOUNT}: '1e17'"),
    ("policy", "tax_system.cfg", "si_floor = 18304", "si_floor = -1e17",
     f"tax_system.cfg:6: si_floor {AMOUNT}: '-1e17'"),
    ("policy", "tax_system.cfg", "unemployment_rate_weekly = 203",
     "unemployment_rate_weekly = 1e17", f"tax_system.cfg:7: unemployment_rate_weekly {AMOUNT}"),
    ("policy", "tax_system.cfg", "pension_rate_weekly = 248.30", "pension_rate_weekly = 1e17",
     f"tax_system.cfg:8: pension_rate_weekly {AMOUNT}"),
    ("policy", "pup.csv", "pup,2020-03-24,0,", "pup,2020-03-24,1e17,",
     "pup.csv:3: bad band_lower '1e17'"),
    ("policy", "twss.csv", "twss,2020-03-26,586,", "twss,2020-03-26,1e17,",
     "twss.csv:4: bad band_lower '1e17'"),
    ("policy", "ewss.csv", "ewss,2020-07-01,203,", "ewss,2020-07-01,1e17,",
     "ewss.csv:4: bad band_lower '1e17'"),
    ("data", "childcare_cost_grid.csv", "lone_parent,2,7.8", "lone_parent,2,1e17",
     "childcare_cost_grid.csv:3: bad cost_eur_week '1e17'"),
    ("data", "commuting_costs.csv", "0.83,14.42", "0.83,1e17",
     "commuting_costs.csv:3: bad total_eur '1e17'"),
    ("data", "shareholding_values.csv", "30,1,0.001", "30,1,1e14",
     "shareholding_values.csv:2: bad value_eur_thousand '1e14'"),
])
def test_money_past_cents_in_a_reference_file_is_located(data_dir, tmp_path, capsys, directory,
                                                         name, old, new, where):
    """An amount of 2**53 cents or more cannot become int64 cents exactly;
    every money cell of a reference file names its file and line."""
    src = data_dir if directory == "data" else os.path.join(data_dir, "policy")
    edited_copy(src, tmp_path / directory, name, old, new)
    code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 f"--{directory}-dir", str(tmp_path / directory)])
    assert code == 1
    assert f"{directory}: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "synth"])
@pytest.mark.parametrize("line", ["weight_jitter = yes", "essential_share[not a sector] = 0.5",
                                  "income_offset[manufactoring] = 0.1", "households = lots",
                                  "income_scale = nan", "sector_share[construction] = -0.5"])
def test_bad_synth_config_exits_one(data_dir, tmp_path, capsys, command, line):
    synth = tmp_path / "synth.cfg"
    synth.write_text(f"households = 40\n{line}\n")
    key = line.split(" =")[0]
    if command == "synth":
        args = ["synth", "--config", str(synth), "--out", str(tmp_path / "out")]
    else:
        args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
                "--synth-config", str(synth)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert f"synth.cfg:2: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_population_and_synth_config_together_is_a_usage_error(data_dir, tmp_path, capsys,
                                                               command):
    save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path / "pop")
    synth = tmp_path / "bad.cfg"
    synth.write_text("households = lots\n")
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--population", str(tmp_path / "pop"), "--synth-config", str(synth)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "argument --synth-config: not allowed with argument --population" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_unknown_population_column_exits_one(data_dir, tmp_path, capsys):
    save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path)
    lines = (tmp_path / "households.csv").read_text().splitlines()
    lines = [lines[0] + ",rooms"] + [line + ",4" for line in lines[1:]]
    (tmp_path / "households.csv").write_text("\n".join(lines) + "\n")
    code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--population", str(tmp_path)])
    assert code == 1
    assert "households.csv: unknown column 'rooms'" in capsys.readouterr().err


def write_non_finite_population(path):
    save_population(generate_synthetic(SynthConfig(households=3), 1), path)
    # 1e17 euros is 1e19 cents: no exact float64, and past int64
    for name, column, text in (("households.csv", "rent", "inf"),
                               ("persons.csv", "private_pension", "nan"),
                               ("persons.csv", "employment_income", "1e17")):
        with open(path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = text
        with open(path / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_population_values_exit_one(data_dir, tmp_path, capsys, command):
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--population", str(write_non_finite_population(tmp_path / "pop"))]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "household 1: column 'rent': must be finite" in err
    assert "person 1: column 'private_pension': must be finite" in err
    assert ("person 1: column 'employment_income': must be under 2**53 cents "
            "in magnitude") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, old, new, where", [
    ("policy/tax_system.cfg", "si_rate = 0.04", "si_rate = 0.04\ncredits = 5000",
     "tax_system.cfg:6: unknown key 'credits'"),
    ("national_reference.csv", "mortgage_count,", "mortgage_cont,5\nmortgage_count,",
     "national_reference.csv:20: unknown key 'mortgage_cont'"),
])
def test_unknown_reference_key_exits_one(data_dir, tmp_path, capsys, name, old, new, where):
    edited_copy(data_dir, tmp_path / "data", name, old, new)
    code = main(["validate", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--data-dir", str(tmp_path / "data"),
                 "--policy-dir", str(tmp_path / "data" / "policy")])
    assert code == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, old, new, where", [
    ("control_totals.csv", "pup:manufacturing,2020-05-05,37400\n",
     "pup:manufacturing,2020-05-05,37400\npup:manufacturing,2020-05-05,1\n",
     "control_totals.csv:10: second row for stratum_key 'pup:manufacturing', date '2020-05-05'"),
    ("control_totals.csv", "mortgage_deferrals,2020-03-28,28000\n",
     "mortgage_deferrals,2020-03-28,28000\nmortgage_deferrals,2020-03-28,1\n",
     "control_totals.csv:412: second row for stratum_key 'mortgage_deferrals', "
     "date '2020-03-28'"),
    ("national_reference.csv", "mortgage_count,", "mortgage_count,5\nmortgage_count,",
     "national_reference.csv:21: second row for key 'mortgage_count'"),
    ("coefficients.csv", "transport_public,logit,1,ind_construction,0.362\n",
     "transport_public,logit,1,ind_construction,0.362\n"
     "transport_public,logit,1,ind_construction,0.5\n",
     "coefficients.csv:4: second row for model_name 'transport_public', "
     "covariate 'ind_construction'"),
    ("policy/pup.csv", "pup,2020-03-24,0,350\n", "pup,2020-03-24,0,350\npup,2020-03-24,0,1\n",
     "pup.csv:4: second row for effective_from '2020-03-24', band_lower '0'"),
    ("policy/tax_system.cfg", "si_rate = 0.04", "si_rate = 0.04\ncredit = 5000",
     "tax_system.cfg:6: credit is given twice"),
    ("policy/tax_system.cfg", "credit = 3300", "[tax]\ncredit = 3300",
     "tax_system.cfg:4: [tax]: this file has no sections"),
])
def test_repeated_reference_key_exits_one(data_dir, tmp_path, capsys, command, name, old, new,
                                          where):
    """A second row for a key, which would replace the first, is a fault."""
    data = tmp_path / "data"
    edited_copy(data_dir, data, name, old, new)
    args = [command, "--scenario", str(data / "scenario.cfg"), "--data-dir", str(data),
            "--policy-dir", str(data / "policy")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (reference file, a required column, the column of the cell made unparseable)
REFERENCE_FILES = [
    ("control_totals.csv", "stratum_key", "target"),
    ("national_reference.csv", "value", "value"),
    ("policy/pup.csv", "effective_from", "band_lower"),
    ("policy/twss.csv", "scheme", "effective_from"),
    ("policy/ewss.csv", "value", "band_lower"),
    ("coefficients.csv", "covariate", "value"),
    ("commuting_costs.csv", "total_eur", "workers"),
    ("sector_groups.csv", "transport_group", "transport_group"),
    ("childcare_cost_grid.csv", "decile", "cost_eur_week"),
    ("shareholding_participation.csv", "age_band", "quintile"),
    ("shareholding_values.csv", "value_eur_thousand", "value_eur_thousand"),
]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fault", ["renamed column", "bad cell after a blank line"])
@pytest.mark.parametrize("name, column, bad_column", REFERENCE_FILES)
def test_reference_file_faults_are_located(data_dir, tmp_path, capsys, command, fault,
                                           name, column, bad_column):
    """A renamed required column names the file; a blank line and then an
    unparseable cell names the file and the cell's physical line."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = next(csv.reader([lines[head]]))
    if fault == "renamed column":
        header[header.index(column)] = column + "_renamed"
        lines[head] = ",".join(header) + "\n"
        where = f"{os.path.basename(name)}: "
    else:
        row = next(csv.reader([lines[head + 2]]))
        row[header.index(bad_column)] = "abc"
        with io.StringIO() as text:
            csv.writer(text, lineterminator="\n").writerow(row)
            lines[head + 2] = "\n" + text.getvalue()
        where = f"{os.path.basename(name)}:{head + 4}: "  # 1-based header, row, blank, row
    path.write_text("".join(lines), encoding="utf-8")
    args = [command, "--scenario", str(data / "scenario.cfg"), "--data-dir", str(data),
            "--policy-dir", str(data / "policy")]
    if command == "run":
        args += ["--synth-config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert (repr(column) if fault == "renamed column" else "'abc'") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_coefficient_row_the_engine_does_not_supply_exits_one(data_dir, tmp_path, capsys,
                                                              command):
    """An occ_9 dummy would never be read: occupation 9 is the reference."""
    shutil.copytree(data_dir, tmp_path / "data")
    with open(tmp_path / "data" / "coefficients.csv", "a", encoding="utf-8") as fh:
        fh.write("transport_public,logit,1,occ_9,5.0\n")
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--data-dir", str(tmp_path / "data")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert ("coefficients.csv:73: transport_public has no covariate 'occ_9'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_supplied_covariate_without_a_row_runs(data_dir, tmp_path, capsys):
    """A covariate the engine supplies but the model has no row for has
    coefficient 0: here transport_public's university dummy."""
    shutil.copytree(data_dir, tmp_path / "data")
    path = tmp_path / "data" / "coefficients.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith("transport_public,logit,1,university,")),
                    encoding="utf-8")
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 40\n")
    assert main(["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
                 "--data-dir", str(tmp_path / "data"), "--synth-config", str(synth),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "gini.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("edit, message", [
    (lambda text: "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("transport_public,")),
     "coefficients.csv: the engine needs a logit model 'transport_public'"),
    (lambda text: text.replace("childcare_spend,linear", "childcare_spend,logit"),
     "coefficients.csv: the engine needs a linear model 'childcare_spend'"),
])
def test_missing_engine_model_exits_one(data_dir, tmp_path, capsys, command, edit, message):
    shutil.copytree(data_dir, tmp_path / "data")
    path = tmp_path / "data" / "coefficients.csv"
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    args = [command, "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--data-dir", str(tmp_path / "data")]
    if command == "run":
        args += ["--synth-config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"data: {message}\n"


def shipped_inputs_with(*edits, synth=None):
    """A fault case: the shipped data and policy with each (file, old, new)
    edit, and a synth.cfg holding `synth` when it is given."""
    def setup(data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        for name, old, new in edits:
            edit_in_place(data / name, old, new)
        args = ["--scenario", str(data / "scenario.cfg"), "--data-dir", str(data),
                "--policy-dir", str(data / "policy")]
        if synth is not None:
            (tmp_path / "synth.cfg").write_text(synth)
            args += ["--synth-config", str(tmp_path / "synth.cfg")]
        return args
    return setup


def bad_scenario(scenario_lines, wave_lines):
    return lambda data_dir, tmp_path: [
        "--scenario", str(write_bad_scenario(tmp_path, scenario_lines, wave_lines))]


def non_finite_population(data_dir, tmp_path):
    return ["--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--population", str(write_non_finite_population(tmp_path / "pop"))]


TWO_FAULTS = shipped_inputs_with(
    ("scenario.cfg", "seed = 42", "seed = abc"),
    ("coefficients.csv", "childcare_spend,linear", "childcare_spend,logit"))

INPUT_FAULTS = [
    *(pytest.param(bad_scenario(scenario_lines, wave_lines), id=f"scenario {where}")
      for scenario_lines, wave_lines, where in TestBadScenarioFields.CASES),
    pytest.param(shipped_inputs_with(("policy/tax_system.cfg", "band = 35300:0.40",
                                      "band = 35300:1.5")), id="tax band"),
    pytest.param(shipped_inputs_with(("national_reference.csv", "population_total,4900000",
                                      "population_total,0")), id="national reference"),
    pytest.param(shipped_inputs_with(("childcare_cost_grid.csv", "lone_parent,3,3.3\n", "")),
                 id="childcare grid"),
    pytest.param(shipped_inputs_with(("coefficients.csv", "childcare_spend,linear",
                                      "childcare_spend,logit")), id="engine model"),
    pytest.param(shipped_inputs_with(synth="households = 40\nincome_scale = nan\n"),
                 id="synth config"),
    pytest.param(non_finite_population, id="population values"),
    pytest.param(shipped_inputs_with(*OUT_OF_SCHEDULE), id="out of schedule"),
    pytest.param(shipped_inputs_with(*OUT_OF_SCHEDULE, synth="households = 0\n"),
                 id="out of schedule and synth config"),
    pytest.param(TWO_FAULTS, id="scenario value and engine model"),
]


@pytest.mark.parametrize("setup", INPUT_FAULTS)
def test_run_reports_input_faults_as_validate_does(data_dir, tmp_path, capsys, setup):
    """run checks its inputs with validate's loader: on each input fault both
    exit with the same code and print the same stderr, and run writes no
    --out."""
    args = setup(data_dir, tmp_path)
    code = main(["validate", *args])
    err = capsys.readouterr().err
    assert code == 1 and err
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_run_reports_every_input_fault(data_dir, tmp_path, capsys):
    """A bad scenario value does not hide a fault in the data tables."""
    args = TWO_FAULTS(data_dir, tmp_path)
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "scenario: scenario.cfg:7: [scenario] seed must be an integer, got 'abc'\n"
        "data: coefficients.csv: the engine needs a linear model 'childcare_spend'\n")


def shipped_inputs_but(name, text):
    """A fault case: the shipped data and policy with the file `name` holding `text`."""
    def setup(data_dir, tmp_path):
        args = shipped_inputs_with()(data_dir, tmp_path)
        (tmp_path / "data" / name).write_text(text, encoding="utf-8")
        return args
    return setup


CONTROL_ROW = "pup:manufacturing,2020-05-05,37400\n"
LAST_CONTROL_ROW = "mortgage_deferrals,2020-09-01,90539\n"
LAST_COEFFICIENT_ROW = "childcare_spend,linear,1,_constant,-15.5\n"


@pytest.mark.parametrize("setup, message", [
    (shipped_inputs_with(("control_totals.csv", CONTROL_ROW, CONTROL_ROW.replace(",3", ",-3"))),
     "controls: control_totals.csv:9: negative target for 'pup:manufacturing'"),
    (shipped_inputs_with(("control_totals.csv", "ceib_cases:in_work:25-34,",
                          "ceib_cases:at_work:25-34,")),
     "controls: control_totals.csv:47: bad case stratum 'ceib_cases:at_work:25-34'"),
    (shipped_inputs_with(("control_totals.csv", LAST_CONTROL_ROW,
                          LAST_CONTROL_ROW + "employment_rate:25-34,2019-12-01,1.5\n")),
     "controls: control_totals.csv:415: employment rate outside [0, 1]"),
    (shipped_inputs_with(("national_reference.csv", "mortgage_count,",
                          "sector_employment:mining,5\nmortgage_count,")),
     "data: national_reference.csv:20: unknown sector 'mining'"),
    (shipped_inputs_with(("scenario.cfg", "[scenario]\ncontrols = control_totals.csv\nseed = 42\n",
                          "")),
     "scenario: scenario.cfg: missing [scenario] section"),
    (shipped_inputs_but("scenario.cfg", "[scenario]\ncontrols = control_totals.csv\n"),
     "scenario: scenario.cfg: no [wave:...] sections"),
    (shipped_inputs_but("policy/pup.csv", "scheme,effective_from,band_lower,value\n"),
     "policy: pup.csv: no schedule rows"),
    (shipped_inputs_with(("policy/pup.csv", "pup,2020-03-13,", "twss,2020-03-13,")),
     "policy: pup.csv:2: expected scheme 'pup'"),
    (shipped_inputs_with(("policy/pup.csv", "pup,2020-03-24,0,350", "pup,2020-03-24,0,10%cap5")),
     "policy: pup.csv:3: bad band value '10%cap5'"),
    (shipped_inputs_with(("policy/tax_system.cfg", "credit = 3300\n", "")),
     "policy: tax_system.cfg: missing key 'credit'"),
    (shipped_inputs_with(("commuting_costs.csv", "1.76,9.17", "1.76,9.20")),
     "data: commuting_costs.csv:2: total 920 != 741 + 176 within a cent"),
    (shipped_inputs_with(("coefficients.csv", LAST_COEFFICIENT_ROW,
                          LAST_COEFFICIENT_ROW + "transport_public,linear,1,occ_9,5.0\n")),
     "data: coefficients.csv:73: transport_public declared with two kinds"),
])
def test_input_faults_are_named(data_dir, tmp_path, capsys, setup, message):
    """Faults of the control, reference, scenario and policy files that no
    other test reaches exit 1 from validate, each with its labelled line."""
    assert main(["validate", *setup(data_dir, tmp_path)]) == 1
    assert f"{message}\n" in capsys.readouterr().err
