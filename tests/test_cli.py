import json
import math

import numpy as np
import pytest

from rigidlab import cli
from rigidlab.errors import ConfigInvalid
from rigidlab.report import PipelineReport


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
        header = open(paths[0]).readline()
        assert "[schedule radius r_n]" in header

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
        lines = open(paths[0]).read().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n [")

    def test_json_stable_keys(self, tmp_path):
        rep = PipelineReport(name="t", columns=["n"])
        cfg = cli.RunConfig(subcommand="schwarz", out_dir=str(tmp_path), format="json")
        (path,) = cli.emit_report(rep, cfg, "t")
        payload = json.load(open(path))
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

    def test_kahler_threshold(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "kahler", "--check", "threshold",
                       "--params", json.dumps({"d": 1, "kappa": 1, "A": 1,
                                               "theta": math.pi / 2})])
        assert rc == 0
        val = json.load(open(tmp_path / "kahler_threshold.json"))["L_threshold"]
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
        verdicts = json.load(open(tmp_path / "out" / "rigidity_convex_id.json"))
        assert verdicts["verdict"] == "forces-identity"

    def test_kahler_bg_on_a_domain_the_sample_ball_misses_exits_2(self, tmp_path, capsys):
        # the domain |z| < 1e-1.5 holds about 1 in 1000 points of B(0, 0.995);
        # the bounded-geometry sampler gives up instead of spinning
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "subcommand": "kahler", "check": "bg", "metric": "poincare", "out_dir": str(tmp_path / "out"),
            "domain": {"kind": "implicit", "dimension": 1, "terms": [[1e6, [2]]], "bounding_radius": 0.01}}))
        assert cli.main(["--config", str(cfg_path)]) == 2
        assert "SamplingEmpty" in capsys.readouterr().err

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

    def test_no_subcommand_is_a_config_error(self, capsys):
        assert cli.main([]) == 2
        assert "config error" in capsys.readouterr().err

    def test_suite_and_readme_example_are_byte_identical(self, tmp_path):
        runs = {
            "suite": ["suite"],
            "convex": ["rigidity", "--pipeline", "convex", "--domain", '{"kind":"ball","dimension":2}',
                       "--map", '{"name":"ball_contact","c":1e-9,"m":4}', "--xi", "[1.0,0.0]"],
        }
        for name, argv in runs.items():
            outs = [tmp_path / f"{name}-{k}" for k in range(2)]
            for out in outs:
                assert cli.main(["--out-dir", str(out)] + argv) == 0
            files = sorted(p.name for p in outs[0].iterdir())
            assert files and files == sorted(p.name for p in outs[1].iterdir())
            for f in files:
                assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f
