"""Tests for the ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.__main__ import build_parser, main

from .fidelity import LEDGER


def pinned(capsys, case, argv):
    """Run ``argv``; its exit code and the sha256 of its stdout are the
    ledger case ``cli/<case>``.  Returns the stdout."""
    code = main(argv)
    output = capsys.readouterr().out
    LEDGER.check(f"cli/{case}", {
        "exit": code,
        "stdout_sha256": hashlib.sha256(output.encode()).hexdigest()})
    return output


def refused(capsys, argv):
    """``argv`` is refused before it runs: one ``error:`` line on stderr,
    exit status 2, no traceback.  Returns the line."""
    with pytest.raises(SystemExit) as refusal:
        main(argv)
    assert refusal.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_tpca_defaults(self):
        args = build_parser().parse_args(["tpca", "10000"])
        assert args.rate == 10_000
        assert args.utilization == 0.8

    def test_policies_args(self):
        args = build_parser().parse_args(
            ["policies", "10/90", "--segments", "32"])
        assert args.localities == ["10/90"]
        assert args.segments == 32

    def test_recover_defaults(self):
        args = build_parser().parse_args(["recover"])
        assert args.plan == "none"
        assert args.kill_at == 0
        assert not args.tear

    def test_recover_args(self):
        args = build_parser().parse_args(
            ["recover", "--plan", "light", "--tear", "--kill-at", "7"])
        assert args.plan == "light"
        assert args.tear
        assert args.kill_at == 7

    def test_observe_defaults(self):
        args = build_parser().parse_args(["observe"])
        assert args.rate == 30_000
        assert args.window_us == 1000
        assert args.out == "observe-out"
        assert not args.smoke
        assert not args.self_profile

    def test_observe_args(self):
        args = build_parser().parse_args(
            ["observe", "--smoke", "--self-profile", "--out", "x",
             "--window-us", "500"])
        assert args.smoke
        assert args.self_profile
        assert args.out == "x"
        assert args.window_us == 500


class TestCommands:
    def test_info(self, capsys):
        output = pinned(capsys, "info", ["info"])
        assert "$69,120" in output

    def test_lifetime_defaults_reproduce_paper(self, capsys):
        output = pinned(capsys, "lifetime", ["lifetime"])
        assert "3,151 days" in output
        assert "8.63 years" in output

    def test_lifetime_custom_inputs(self, capsys):
        pinned(capsys, "lifetime_custom",
               ["lifetime", "--flush-rate", "1000", "--cost", "0"])

    def test_demo(self, capsys):
        pinned(capsys, "demo", ["demo"])

    def test_policies_small_run(self, capsys):
        pinned(capsys, "policies", ["policies", "50/50", "--segments", "16",
                                    "--pages", "32", "--partition", "4"])

    def test_tpca_small_run(self, capsys):
        pinned(capsys, "tpca", ["tpca", "3000", "--duration", "0.02"])

    def test_faults_small_run(self, capsys):
        pinned(capsys, "faults", ["faults", "--writes", "400", "--seed", "3"])

    def test_recover_small_run(self, capsys):
        pinned(capsys, "recover", ["recover", "--transactions", "6"])

    def test_recover_torn_under_faults(self, capsys):
        pinned(capsys, "recover_torn",
               ["recover", "--transactions", "6", "--plan", "light",
                "--tear", "--seed", "2"])

    def test_recover_reports_precut_tail(self, capsys):
        assert main(["recover", "--transactions", "6"]) == 0
        output = capsys.readouterr().out
        assert "write_latency_p99_ns (pre-cut)" in output

    def test_tpca_reports_percentiles(self, capsys):
        assert main(["tpca", "3000", "--duration", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "p50" in output
        assert "p99" in output

    def test_observe_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["observe", "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "observability dashboard" in output
        assert "wear heatmap" in output
        assert "exports validated" in output
        assert (tmp_path / "observe-out" / "trace.json").exists()

    def test_serve_small_run(self, capsys):
        pinned(capsys, "serve", ["serve", "--shards", "2", "--segments", "4",
                                 "--pages", "16", "--duration", "0.0001",
                                 "--rate", "2e6", "--jobs", "1"])

    def test_serve_custom_tenant_specs(self, capsys):
        pinned(capsys, "serve_tenant",
               ["serve", "--shards", "2", "--segments", "4", "--pages", "16",
                "--duration", "0.0001", "--jobs", "1",
                "--tenant", "name=solo,workload=uniform,"
                            "rate_tps=1e6,write_fraction=0.2"])

    def test_serve_rejects_bad_tenant_spec(self, capsys):
        refused(capsys, ["serve", "--tenant", "nonsense"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["serve", "--shards", "0"], id="serve-shards-0"),
        pytest.param(["serve", "--redundancy", "bogus"],
                     id="serve-redundancy-bogus"),
        pytest.param(["serve", "--segments", "0"], id="serve-segments-0"),
        pytest.param(["faults", "--segments", "0"], id="faults-segments-0"),
        pytest.param(["recover", "--segments", "0"],
                     id="recover-segments-0"),
        pytest.param(["tpca", "100", "--utilization", "1.5"],
                     id="tpca-utilization-1.5"),
        pytest.param(["policies", "50/50", "--segments", "3"],
                     id="policies-segments-3"),
        pytest.param(["policies", "bogus"], id="policies-bogus"),
        pytest.param(["tpca", "100", "--duration", "-1"],
                     id="tpca-duration--1"),
        pytest.param(["lifetime", "--cost", "-1"], id="lifetime-cost--1")])
    def test_a_config_value_refused_is_a_usage_error(self, capsys, argv):
        refused(capsys, argv)

    @pytest.mark.parametrize("kill_at", ["-5", "9999"])
    def test_recover_refuses_a_kill_point_outside_the_run(self, capsys,
                                                          kill_at):
        """A power cut past the run's 35 Flash ops (4 transactions)
        never happens, so nothing would be recovered or checked."""
        assert "1..35" in refused(capsys, ["recover", "--transactions", "4",
                                           "--kill-at", kill_at])

    def test_serve_refuses_attack_with_kill_bank(self, capsys):
        """The attack demo would run and the kill-bank demo be dropped."""
        assert "--attack" in refused(capsys, [
            "serve", "--attack", "targeted-wear", "--kill-bank", "1",
            "--redundancy", "mirror", "--shards", "2", "--segments", "4",
            "--pages", "16", "--duration", "0.0001", "--jobs", "1"])

    def test_serve_smoke_validates_determinism(self, capsys):
        output = pinned(capsys, "serve_smoke", ["serve", "--smoke", "--jobs",
                                                "1"])
        assert "smoke ok" in output


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 4
        assert args.queue == 256
        assert args.jobs is None
        assert not args.smoke
        assert args.tenant is None

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "8", "--tenant", "name=a",
             "--tenant", "name=b", "--smoke", "--seed", "5"])
        assert args.shards == 8
        assert args.tenant == ["name=a", "name=b"]
        assert args.smoke
        assert args.seed == 5
