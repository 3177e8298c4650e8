import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidlab import cli, domain, rigidity, schwarz
from rigidlab.errors import ConfigInvalid
from rigidlab.report import PipelineReport

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each ``rigidlab`` command in the README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.strip()]


# implicit-domain specs whose terms or bounding radius are malformed
IMPLICIT_SPECS = {
    "terms-short": {"terms": [[1.0]]},
    "terms-word": {"terms": [["a", [1]]]},
    "terms-number": {"terms": 5},
    "terms-fraction": {"terms": [[1.0, [1.5]]]},
    "terms-infinite": {"terms": [[math.inf, [1]]]},
    "radius-word": {"terms": [[1.0, [1]]], "bounding_radius": "x"},
}


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config({"subcommand": "schwarz"})
        assert cfg.seed == 42 and cfg.format == "both" and cfg.out_dir == "out"

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigInvalid):
            cli.parse_config({"subcommand": "frobnicate"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.parse_config({"subcommand": "schwarz", "banana": 1})

    def test_schedule_must_decrease(self):
        with pytest.raises(ConfigInvalid):
            cli.parse_schedule([0.5, 0.6])

    def test_schedule_range(self):
        with pytest.raises(ConfigInvalid):
            cli.parse_schedule([1.5, 0.5])

    def test_geometric_schedule_default(self):
        sched = cli.parse_schedule({"kind": "geometric"})
        assert sched[0] == 0.5**3 and sched[-1] == 0.5**14
        assert np.all(np.diff(sched) < 0)

    def test_map_specs(self):
        assert cli.map_from_config("id").name == "id"
        assert cli.map_from_config({"name": "rotation", "theta": 0.001}).name == "rotation(0.001)"
        assert cli.map_from_config({"name": "poly_contact", "c": 1e-9, "m": 4}).contact.order == 4

    def test_bad_map_spec(self):
        with pytest.raises(ConfigInvalid):
            cli.map_from_config({"name": "warp"})
        with pytest.raises(ConfigInvalid, match="map.theta"):
            cli.map_from_config({"name": "rotation", "theta": "x"})
        with pytest.raises(ConfigInvalid, match="map.zeros"):
            cli.map_from_config({"name": "blaschke", "zeros": 0.5})

    def test_kahler_model_dimension(self):
        assert cli.kahler_from_config({"name": "bergman-ball", "dimension": 3}).complex_dim == 3
        assert cli.kahler_from_config("bergman-ball").complex_dim == 2
        assert cli.kahler_from_config("bergman-ball", 1).name == "bergman-ball-1"
        assert cli.kahler_from_config("flat", 2).complex_dim == 2
        for spec, dim in [("foo", 1), ("poincare", 2), ({"name": "bergman-ball", "dimension": 3}, 2),
                          ({"name": "flat", "dimension": 0}, None), (["poincare"], 1)]:
            with pytest.raises(ConfigInvalid):
                cli.kahler_from_config(spec, dim)

    def test_every_spec_takes_a_bare_name(self):
        assert cli.domain_from_config("disk").kind == "disk"
        assert cli.map_from_config("bk_extremal").name == cli.map_from_config({"name": "bk_extremal"}).name
        assert cli.metric_from_config("sphere").name == cli.metric_from_config({"name": "sphere"}).name
        assert cli.kahler_from_config("flat").complex_dim == 1
        assert cli.parse_schedule("geometric").tolist() == cli.parse_schedule({"kind": "geometric"}).tolist()

    def test_every_config_key_is_a_flag_that_lands_in_options(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(cli.SUBCOMMAND_KEYS) == set(cli._RUNNERS)
        tokens = {cli.JSON: "[0.5, 0.25]", float: "0.5", int: "3", list: "[[0.5]]"}
        # a params key that the last op (backward) or check (threshold) reads
        params = {"riemann": '{"eps": 1}', "kahler": '{"d": 1}'}
        for sub, kinds in cli.SUBCOMMAND_KEYS.items():
            flags = {a.dest for a in subparsers.choices[sub]._actions if a.option_strings} - {"help"}
            assert flags == set(kinds), sub
            given = {key: kind[-1] if isinstance(kind, tuple) else params[sub] if kind is dict else tokens[kind]
                     for key, kind in kinds.items()}
            argv = [sub] + [t for key, token in given.items() for t in ("--" + key.replace("_", "-"), token)]
            cfg = cli.config_from_args(parser.parse_args(argv))
            assert set(cfg.options) == set(kinds), sub
            for key, token in given.items():
                want = token if isinstance(kinds[key], tuple) else json.loads(token)
                assert np.asarray(cfg.options[key]).tolist() == want, (sub, key)

    @pytest.mark.parametrize("raw", [
        {"subcommand": "rigidity", "theta": float("nan")},
        {"subcommand": "cgeo", "k_max": 2.5},
        {"subcommand": "kob", "op": "frob"},
        {"subcommand": "riemann", "params": [1]},
        {"subcommand": "suite", "seed": "x"},
        {"subcommand": "schwarz", "format": "xml"},
        {"subcommand": "schwarz", "schedule": {"kind": "geometric", "ratio": "x"}},
    ], ids=lambda raw: next(k for k in reversed(raw)))
    def test_values_of_the_wrong_kind_are_rejected(self, raw):
        with pytest.raises(ConfigInvalid):
            cli.parse_config(raw)

    def test_domain_spec_via_config(self):
        cfg = cli.parse_config({"subcommand": "rigidity",
                                "domain": {"kind": "ellipsoid", "exponents": [1, 2]}})
        assert cfg.options["domain"]["exponents"] == [1, 2]


class TestEmission:
    def test_registry_covers_pipeline_columns(self, tmp_path):
        rep = PipelineReport(name="t", columns=["n", "r_n", "composite"])
        rep.rows = [{"n": 0, "r_n": 0.5, "composite": 1.0}]
        cfg = cli.RunConfig(subcommand="schwarz", out_dir=str(tmp_path))
        paths = cli.emit_report(rep, cfg, "t")
        with open(paths[0]) as fh:
            header = fh.readline()
        assert "[schedule radius r_n]" in header

    def test_generic_convex_artifacts_are_pinned(self, tmp_path):
        # the ellipsoid takes the generic dist_uppers path (the center route
        # of center_dist from z0 = 0) and the closed-form C0; its rows and its
        # JSON are pinned by their SHA-256 digests
        rep = rigidity.convex_pipeline(domain.ellipsoid((1, 2)), schwarz.identity_map(2), [1, 0],
                                       schwarz.geometric_schedule(3, 6))
        cfg = cli.RunConfig(subcommand="rigidity", out_dir=str(tmp_path), format="both")
        csv_path, json_path = cli.emit_report(rep, cfg, "ellipsoid")
        rows = csv_path.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(rows).hexdigest() == \
            "5e3a25106f140dbd184f5a0be443522d6ebe95f51f352bd69a8b69f5dd77ce77"
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == \
            "a6c151a362ad508b4b153caae223d50e351ed6c75d0a4fc9423480eb980ff83d"

    def test_unregistered_column_rejected(self, tmp_path):
        rep = PipelineReport(name="t", columns=["mystery"])
        rep.rows = []
        cfg = cli.RunConfig(subcommand="schwarz", out_dir=str(tmp_path))
        with pytest.raises(KeyError):
            cli.emit_report(rep, cfg, "t")

    def test_empty_schedule_header_only(self, tmp_path):
        rep = PipelineReport(name="t", columns=["n", "r_n"])
        cfg = cli.RunConfig(subcommand="schwarz", out_dir=str(tmp_path), format="csv")
        paths = cli.emit_report(rep, cfg, "empty")
        lines = Path(paths[0]).read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n [")

    def test_json_stable_keys(self, tmp_path):
        rep = PipelineReport(name="t", columns=["n"])
        cfg = cli.RunConfig(subcommand="schwarz", out_dir=str(tmp_path), format="json")
        (path,) = cli.emit_report(rep, cfg, "t")
        payload = json.loads(Path(path).read_text())
        assert list(payload) == sorted(payload)


class TestMain:
    def test_pipeline_run_and_determinism(self, tmp_path):
        argv = ["--out-dir", str(tmp_path / "a"), "schwarz", "--map", "bk_extremal",
                "--schedule", json.dumps({"kind": "geometric", "n_lo": 3, "n_hi": 8})]
        assert cli.main(argv) == 0
        argv2 = ["--out-dir", str(tmp_path / "b"), "schwarz", "--map", "bk_extremal",
                 "--schedule", json.dumps({"kind": "geometric", "n_lo": 3, "n_hi": 8})]
        assert cli.main(argv2) == 0
        a = (tmp_path / "a" / "schwarz_bk_extremal.csv").read_bytes()
        b = (tmp_path / "b" / "schwarz_bk_extremal.csv").read_bytes()
        assert a == b

    def test_malformed_map_spec_exits_2(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "schwarz", "--map",
                       json.dumps({"name": "nosuchmap"})])
        assert rc == 2

    def test_uncertified_map_exits_2(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "schwarz", "--map",
                       json.dumps({"name": "poly_contact", "c": 1e-3, "m": 4})])
        assert rc == 2

    def test_kob_subcommand(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "kob",
                       "--domain", json.dumps({"kind": "disk"}),
                       "--op", "dist", "--points", json.dumps([[0], [0.5]])])
        assert rc == 0
        body = (tmp_path / "kob.csv").read_text().splitlines()
        assert len(body) == 2
        rc = cli.main(["--out-dir", str(tmp_path), "kob", "--op", "metric",
                       "--points", "[[0.5]]", "--vectors", "[[1]]"])
        assert rc == 0
        assert len((tmp_path / "kob.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("argv", [
        ["--op", "metric", "--points", "[[0.5,0]]"],
        ["--op", "metric", "--points", "[[0.5,0],[0,0.1]]", "--vectors", "[[0,1]]"],
        ["--op", "dist", "--points", "[[0.5,0],[0,0.1],[0.2,0]]"],
    ], ids=["metric-without-vectors", "metric-2-points-1-vector", "dist-3-points"])
    def test_kob_points_must_pair_up(self, tmp_path, capsys, argv):
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "kob",
                       "--domain", '{"kind":"ball","dimension":2}'] + argv)
        assert rc == 2
        assert "error [ConfigInvalid]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [
        {"subcommand": "rigidity", "pipeline": "biholo", "theta": "abc"},
        {"subcommand": "kob", "op": "ball", "points": [[0.1]], "radius": "x"},
        {"subcommand": "schwarz", "xi": "abc"},
        ["schwarz", "--xi", "[1,0,0]"],
        {"subcommand": "riemann", "params": {"horizon": "x"}},
        ["rigidity", "--pipeline", "biholo", "--metric", "foo"],
        ["rigidity", "--pipeline", "biholo", "--domain", '{"kind":"ball","dimension":2}',
         "--metric", "poincare"],
        ["rigidity", "--pipeline", "biholo", "--theta", "2"],
        ["rigidity", "--pipeline", "biholo", "--cone-length", "-1"],
        ["riemann", "--metric", "[1]"],
    ], ids=["theta", "radius", "xi", "xi-triple", "params-horizon", "kahler-model",
            "model-dimension", "aperture", "cone-length", "metric-list"])
    def test_malformed_input_exits_2_without_output(self, tmp_path, capsys, given):
        argv = given
        if isinstance(given, dict):
            (tmp_path / "run.json").write_text(json.dumps(given))
            argv = ["--config", str(tmp_path / "run.json")]
        assert cli.main(["--out-dir", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr().err.startswith(("config error", "error ["))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["kahler", "--check", "threshold", "--params", '{"d":0}'],
        ["cgeo", "--points", "[[0,0],[0.5,0]]", "--k-max", "0"],
        ["schwarz", "--schedule", "[]"],
        ["schwarz", "--xi", "0"],
        ["rigidity", "--pipeline", "biholo", "--z0", "[2]"],
        ["kob", "--domain", '{"kind":"ball","dimension":"x"}', "--points", "[[0.1,0]]"],
        ["kob", "--domain", '{"kind":"ball","dimension":0}'],
        ["kob", "--domain", '{"kind":"ellipsoid","exponents":[0,1]}'],
        ["kob", "--op", "ball", "--points", "[[0.1]]", "--radius", "-1"],
        ["riemann", "--params", '{"step":0}'],
        ["riemann", "--op", "jacobi", "--params", '{"step":-1}'],
        ["riemann", "--op", "backward", "--params", '{"eps":0}'],
        ["riemann", "--op", "backward", "--params", '{"eps":-1}'],
        ["riemann", "--metric", "poincare", "--op", "spread", "--params", '{"grid":-1}'],
        ["riemann", "--metric", "poincare", "--op", "spread", "--params", '{"grid":0}'],
        ["schwarz", "--map", '{"name":"cubic_contact","c":0.5}'],
        ["schwarz", "--map", '{"name":"halfplane_contact","c":-1,"beta":0.5}'],
        ["rigidity", "--pipeline", "convex", "--domain", '{"kind":"ball","dimension":2}',
         "--map", '{"name":"ball_automorphism","a":[1.5,0]}'],
        *(["kob", "--domain", json.dumps({"kind": "implicit", "dimension": 1, **spec})]
          for spec in IMPLICIT_SPECS.values()),
        ["rigidity", "--pipeline", "convex", "--z0", "[2]"],
        ["kahler", "--check", "inj", "--params", '{"kappa":0}'],
        ["kahler", "--check", "inj", "--params", '{"kappa":-1}'],
        ["cgeo", "--points", "[[0,0],[0.5,0]]", "--zeta", "0"],
        ["riemann", "--metric", '{"name":"euclid","dimension":1}', "--op", "spread"],
        ["riemann", "--metric", '{"name":"euclid","dimension":1}', "--op", "backward"],
        ["riemann", "--op", "flow", "--params", '{"horizon":-1}'],
        ["riemann", "--op", "jacobi", "--params", '{"horizon":-1}'],
        ["riemann", "--op", "spread", "--params", '{"horizon":-1}'],
        ["riemann", "--op", "flow", "--params", '{"horizon":0}'],
    ], ids=["threshold-d", "k-max", "empty-schedule", "xi-zero", "z0-outside", "dimension-x",
            "dimension-0", "exponent-0", "radius", "step", "jacobi-step", "eps-0", "eps-negative",
            "spread-grid-negative", "spread-grid-0", "cubic-contact-c", "halfplane-contact-c",
            "ball-automorphism-outside", *IMPLICIT_SPECS, "convex-z0-outside", "inj-kappa-0",
            "inj-kappa-negative", "zeta-0", "spread-dimension-1", "backward-dimension-1",
            "flow-horizon-negative", "jacobi-horizon-negative", "spread-horizon-negative",
            "flow-horizon-0"])
    def test_out_of_range_values_exit_2_without_output(self, tmp_path, capsys, argv):
        assert cli.main(["--out-dir", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr().err.startswith(("config error", "error [ConfigInvalid]"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["riemann", "--metric", "poincare", "--op", "spread", "--params", '{"foo":-1}'],
        ["riemann", "--op", "flow", "--params", '{"horizn":5}'],
        ["kahler", "--check", "squeeze", "--params", '{"zz":1}'],
        ["riemann", "--op", "spread", "--params", '{"step":-1}'],
        ["riemann", "--op", "backward", "--params", '{"horizon":2}'],
        ["kahler", "--params", '{"d":1}'],
    ], ids=["spread-foo", "flow-typo", "squeeze-zz", "spread-step", "backward-horizon", "bg-d"])
    def test_params_key_the_op_does_not_read_exits_2(self, tmp_path, capsys, argv):
        # each riemann op and kahler check reads its own params keys; a typo or a
        # key of another op would otherwise be ignored and its default used
        assert cli.main(["--out-dir", str(tmp_path / "out")] + argv) == 2
        assert "unknown params keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["riemann", "--metric", '{"name":"bergman-ball","dim":3}'],
        ["kahler", "--check", "bg", "--metric", '{"name":"bergman-ball","dim":3}'],
        ["schwarz", "--map", '{"name":"poly_contact","c":1e-9,"m":4,"xi":2}'],
        ["schwarz", "--schedule", '{"kind":"list","values":[0.25,0.125],"ratio":0.9}'],
        ["riemann", "--metric", '{"name":"poincare","dimension":"x"}'],
        ["kob", "--domain", '{"kind":"ball","dimension":2,"radius":1}'],
    ], ids=["metric", "kahler-model", "map", "schedule", "metric-poincare", "domain"])
    def test_a_key_the_spec_does_not_read_exits_2(self, tmp_path, capsys, argv):
        # a key the named choice does not read would otherwise be dropped, and
        # its default used: the Kahler model above would run in dimension 2
        assert cli.main(["--out-dir", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr().err.startswith(("config error", "error [ConfigInvalid]"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("metric", [{"name": "euclid", "dimension": -1},
                                        {"name": "euclid", "dimension": 0},
                                        {"name": "bergman-ball", "dimension": -2},
                                        {"name": "bergman-ball", "dimension": 0}],
                             ids=["euclid--1", "euclid-0", "bergman-ball--2", "bergman-ball-0"])
    def test_metric_dimension_below_1_names_the_key(self, tmp_path, capsys, metric):
        argv = ["--out-dir", str(tmp_path / "out"), "riemann", "--metric", json.dumps(metric),
                "--op", "flow"]
        assert cli.main(argv) == 2
        assert "metric.dimension" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_convex_pipeline_reads_z0(self, tmp_path):
        c0 = {}
        for z0 in ([], ["--z0", "[0.5]"]):
            out = tmp_path / str(len(z0))
            rc = cli.main(["--out-dir", str(out), "rigidity", "--pipeline", "convex"] + z0)
            assert rc in (0, 1)
            c0[len(z0)] = json.loads((out / "rigidity_convex_id.json").read_text())["fitted"]["C0"]
        direct = rigidity.convex_pipeline(domain.disk(), schwarz.identity_map(), [1.0], z0=[0.5])
        assert c0[0] == 0.5 * math.log(2.0)
        assert c0[2] == direct.fitted["C0"] != c0[0]

    def test_python_m_rigidlab_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "rigidlab", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: rigidlab")

    def test_kahler_bg_honours_the_model_dimension(self, tmp_path, monkeypatch):
        seen = []

        def stop(kf, dom):
            seen.append((kf.name, dom.dimension))
            raise ConfigInvalid("stop")

        monkeypatch.setattr(cli.kahler, "property_bg_estimate", stop)
        cli.main(["--out-dir", str(tmp_path), "kahler", "--check", "bg",
                  "--metric", '{"name":"bergman-ball","dimension":3}'])
        assert seen == [("bergman-ball-3", 3)]

    def test_kahler_squeeze_takes_a_domain_flag(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "kahler", "--check", "squeeze",
                       "--domain", '{"kind":"ball","dimension":2}'])
        assert rc == 0
        assert len(json.loads((tmp_path / "kahler_squeeze.json").read_text())["z"]) == 2

    def test_cgeo_writes_plain_radii(self, tmp_path):
        # the input column holds each radius as a float's repr, not a numpy scalar's
        rc = cli.main(["--out-dir", str(tmp_path), "cgeo", "--domain", '{"kind":"polydisk","dimension":2}',
                       "--points", "[[0.1,0.05],[0.5,0.1]]"])
        assert rc == 0
        rows = (tmp_path / "cgeo_probe.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "r=0.5"

    def test_kahler_threshold(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "kahler", "--check", "threshold",
                       "--params", json.dumps({"d": 1, "kappa": 1, "A": 1,
                                               "theta": math.pi / 2})])
        assert rc == 0
        val = json.loads((tmp_path / "kahler_threshold.json").read_text())["L_threshold"]
        assert val == 7.0

    def test_riemann_spread_violation_exits_1(self, tmp_path):
        # feeding a curvature bound far below the true hyperbolic value makes
        # the exponential factor too weak: rows must fail and exit 1
        rc = cli.main(["--out-dir", str(tmp_path), "riemann", "--metric", "poincare",
                       "--op", "spread",
                       "--params", json.dumps({"x0": [0.0, 0.0], "v0": [1.0, 0.0],
                                               "horizon": 3.0, "angle": 0.1,
                                               "kappa": -0.99})])
        assert rc == 1

    def test_jobs_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--jobs", "2", "--out-dir", str(tmp_path), "schwarz", "--map", "id"])
        assert exc.value.code == 2
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"subcommand": "schwarz", "map": "id", "jobs": 2,
                                        "out_dir": str(tmp_path / "out")}))
        capsys.readouterr()
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "unknown config keys for schwarz: ['jobs']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_convex_ball_example_parses(self, tmp_path):
        # the README's example, argument for argument; exit 2 would mean it
        # was rejected as bad input
        rc = cli.main(["--out-dir", str(tmp_path), "rigidity", "--pipeline", "convex",
                       "--domain", '{"kind":"ball","dimension":2}',
                       "--map", '{"name":"ball_contact","c":1e-9,"m":4}', "--xi", "[1.0,0.0]"])
        assert rc != 2

    def test_config_file_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "subcommand": "rigidity", "pipeline": "convex",
            "domain": {"kind": "disk"}, "map": "id", "out_dir": str(tmp_path / "out"),
            "schedule": {"kind": "geometric", "n_lo": 3, "n_hi": 8},
        }))
        assert cli.main(["--config", str(cfg_path)]) == 0
        verdicts = json.loads((tmp_path / "out" / "rigidity_convex_id.json").read_text())
        assert verdicts["verdict"] == "forces-identity"

    def test_kahler_bg_on_a_mismatched_pair_exits_2(self, tmp_path, capsys):
        # the bounded-geometry constants are exact only for a model on the unit
        # disk or ball of its own dimension
        for metric, dom in [
                ("poincare", {"kind": "implicit", "dimension": 1, "terms": [[1e6, [2]]], "bounding_radius": 0.01}),
                ("bergman-ball", {"kind": "polydisk", "dimension": 2}),
                ({"name": "bergman-ball", "dimension": 2}, {"kind": "ball", "dimension": 3})]:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"subcommand": "kahler", "check": "bg", "metric": metric,
                                            "out_dir": str(tmp_path / "out"), "domain": dom}))
            assert cli.main(["--config", str(cfg_path)]) == 2
            assert "error [ConfigInvalid]" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_biholo_on_an_incomplete_metric_exits_2(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "rigidity", "--pipeline", "biholo",
                       "--metric", "flat"])
        assert rc == 2
        assert "error [PropertyBGFail]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unbounded_implicit_domain_exits_2(self, tmp_path, capsys):
        # D x C: the metric along the free axis is 0, so no certified interval exists
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "subcommand": "kob", "domain": {"kind": "implicit", "dimension": 2, "terms": [[1.0, [1, 0]]]},
            "op": "metric", "points": [[0.5, 0]], "vectors": [[0, 1]], "out_dir": str(tmp_path / "out")}))
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "no pure-power term" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_off_boundary_apex_exits_2(self, tmp_path, capsys):
        rc = cli.main(["--out-dir", str(tmp_path), "rigidity", "--pipeline", "convex",
                       "--domain", '{"kind":"ball","dimension":2}', "--map", "id", "--xi", "[0.5,0.0]"])
        assert rc == 2
        assert "error [ApexNotOnBoundary]" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_apex_exits_2(self, tmp_path, capsys):
        # r and grad r overflow to inf at this point: a typed error, not a NaN normal
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "rigidity", "--pipeline", "convex",
                       "--domain", '{"kind":"ellipsoid","exponents":[1,2]}', "--xi", "[0, 1e110]"])
        assert rc == 2
        assert "error [ApexNotOnBoundary]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_z0_on_a_schedule_point_exits_2(self, tmp_path, capsys):
        # p_0 = 0.75: the geodesic p_0 -> z0 does not exist, and no NaN reaches a norm
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "rigidity", "--pipeline", "biholo",
                       "--z0", "[0.75]"])
        assert rc == 2
        assert "error [ShootingDiverged]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_poincare_spread_past_the_chart_exits_2(self, tmp_path, capsys):
        # past t ~ 30 the sampled rays round onto |z| = 1; the distance used to
        # clamp there and mark rows up to t = 60 exact at 37.42994775023705
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "riemann", "--metric", "poincare",
                       "--op", "spread", "--params", '{"horizon": 60}'])
        assert rc == 2
        assert "error [LeftChart]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dimension, params", [(1, '{"horizon": 34, "kappa": 1, "grid": 60}'),
                                                   (2, '{"horizon": 40, "kappa": 1, "grid": 80}')],
                             ids=["dimension-1", "dimension-2"])
    def test_bergman_spread_past_the_chart_exits_2(self, tmp_path, capsys, dimension, params):
        # the Bergman distance used to clamp where the sampled rays round onto the
        # unit sphere: rows for t = 30 to 40 at d = 2 read sqrt(6) atanh(1 - 1e-16)
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "riemann", "--metric",
                       f'{{"name":"bergman-ball","dimension":{dimension}}}', "--op", "spread", "--params", params])
        assert rc == 2
        assert "error [LeftChart]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("domain", ['{"kind":"disk"}', '{"kind":"ball","dimension":1}',
                                        '{"kind":"polydisk","dimension":1}'], ids=["disk", "ball-1", "polydisk-1"])
    @pytest.mark.parametrize("f", ['{"name":"poly_contact","c":1e-9,"m":4}', '{"name":"cubic_contact","c":0.05}'],
                             ids=["poly_contact", "cubic_contact"])
    def test_every_spelling_of_the_disk_gives_the_disk_rows(self, tmp_path, capsys, domain, f):
        # the polydisk of dimension 1 once missed the disk calibration: eps_n fell
        # to 1.526e-05 against 0.1, and cubic_contact(0.05) ended at 1.02e4
        # against 1.557
        def run(spelling, out):
            rc = cli.main(["--out-dir", str(tmp_path / out), "--format", "csv", "rigidity",
                           "--pipeline", "convex", "--domain", spelling, "--map", f])
            return rc, capsys.readouterr().out, [p.read_text() for p in sorted((tmp_path / out).iterdir())]
        assert run(domain, "spelled") == run('{"kind":"disk"}', "disk")

    def test_polydisk_corner_exits_2(self, tmp_path, capsys):
        # the boundary is not C^2 where two coordinates have the largest modulus
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "rigidity", "--pipeline", "convex",
                       "--domain", '{"kind":"polydisk","dimension":2}', "--xi", "[1.0,1.0]"])
        assert rc == 2
        assert "error [DegenerateGradient]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_disk_quick_check_runs_the_generic_estimator(self, monkeypatch):
        first = ("disk distance intervals contain the closed form", True)
        assert cli._quick_checks(42)[0] == first
        # with the closed form returned as the interval, the check could not fail
        from rigidlab import kobayashi
        monkeypatch.setattr(kobayashi, "_route_upper", lambda dom, z, w, through_center: 0.0)
        assert cli._quick_checks(42)[0] == (first[0], False)

    def test_no_subcommand_is_a_config_error(self, capsys):
        assert cli.main([]) == 2
        assert "config error" in capsys.readouterr().err

    def test_suite_and_readme_example_are_byte_identical(self, tmp_path):
        runs = readme_commands()
        assert ["suite"] in runs and len(runs) >= 7
        for k, argv in enumerate(runs):
            outs = [tmp_path / f"{k}-{rep}" for rep in range(2)]
            for out in outs:
                assert cli.main(["--out-dir", str(out)] + argv) == 0, argv
            files = sorted(p.name for p in outs[0].iterdir())
            assert files and files == sorted(p.name for p in outs[1].iterdir())
            for f in files:
                assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f
