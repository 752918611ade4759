import socket
import threading
import time

import pytest

from repro.pipeline.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_args(self):
        args = build_parser().parse_args(
            ["tune", "--resolution", "1deg", "--nodes", "128", "--seed", "3"]
        )
        assert args.resolution == "1deg" and args.nodes == 128 and args.seed == 3
        assert args.method == "lpnlp"

    def test_bad_resolution_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--resolution", "2deg", "--nodes", "8"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t3-1" in out and "fig4" in out

    def test_tune_smoke(self, capsys):
        code = main(["tune", "--resolution", "1deg", "--nodes", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Total time, sec" in out
        assert "fit R^2" in out
        assert "solver:" in out

    def test_tune_oracle_method(self, capsys):
        code = main(
            ["tune", "--resolution", "1deg", "--nodes", "128", "--method", "oracle"]
        )
        assert code == 0
        assert "Total time, sec" in capsys.readouterr().out

    def test_ampl_export(self, capsys):
        code = main(["ampl", "--resolution", "1deg", "--nodes", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimize total_time" in out
        assert "subject to" in out

    def test_exp_unknown_id_errors(self, capsys):
        code = main(["exp", "definitely-not-an-experiment"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_exp_runs_ablation(self, capsys):
        assert main(["exp", "a-solve"]) == 0
        assert "A-SOLVE" in capsys.readouterr().out

    def test_gather_fit_solve_file_workflow(self, capsys, tmp_path):
        bench = str(tmp_path / "bench.json")
        fits = str(tmp_path / "fits.json")
        assert main(["gather", "--resolution", "1deg", "--nodes", "128",
                     "--out", bench]) == 0
        assert main(["fit", "--benchmarks", bench, "--out", fits]) == 0
        assert main(["solve", "--fits", fits, "--resolution", "1deg",
                     "--nodes", "128"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "predicted total:" in out
        assert "n_atm" in out

    def test_fit_bad_file_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        assert main(["fit", "--benchmarks", str(bad), "--out",
                     str(tmp_path / "out.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_exp_without_id_errors(self, capsys):
        assert main(["exp"]) == 1
        assert "experiment id or --all" in capsys.readouterr().err

    def test_decomp_advice(self, capsys):
        assert main(["decomp", "91", "1021"]) == 0
        out = capsys.readouterr().out
        assert "decomposition advice" in out
        assert "91" in out and "recommended" in out

    def test_tune_infeasible_configuration_errors(self, capsys):
        # 8th degree at 300 nodes: no allowed ocean count fits.
        code = main(["tune", "--resolution", "8th", "--nodes", "300"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestResilienceFlags:
    def test_tune_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["tune", "--resolution", "1deg", "--nodes", "128",
             "--fault-profile", "crash=0.2", "--max-retries", "3",
             "--deadline", "30"]
        )
        assert args.fault_profile == "crash=0.2"
        assert args.max_retries == 3
        assert args.deadline == 30.0

    def test_tune_with_faults_prints_event_summary(self, capsys):
        code = main(["tune", "--resolution", "1deg", "--nodes", "128",
                     "--fault-profile", "crash=0.3,outlier=0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Total time, sec" in out
        assert "resilience events" in out

    def test_tune_bad_fault_profile_errors(self, capsys):
        code = main(["tune", "--resolution", "1deg", "--nodes", "128",
                     "--fault-profile", "bogus=1"])
        assert code == 1
        assert "fault-profile" in capsys.readouterr().err

    def test_gather_with_faults_writes_data_and_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "bench.json")
        code = main(["gather", "--resolution", "1deg", "--nodes", "128",
                     "--fault-profile", "crash=0.3", "--out", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "resilience events" in out

    def test_gather_max_retries_alone_enables_resilient_path(self, capsys, tmp_path):
        out_path = str(tmp_path / "bench.json")
        code = main(["gather", "--resolution", "1deg", "--nodes", "128",
                     "--max-retries", "2", "--out", out_path])
        assert code == 0
        # Clean simulator: resilient path engaged but silent.
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "resilience events" not in out


class TestFleetFlags:
    @pytest.mark.parametrize("flag", ["--supervised", "--checkpoint-dir=ckpt"])
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "t3-1", flag])

    def test_supervised_name_is_not_an_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "t3-1", "--executor", "supervised"])

    def test_fleet_flags_apply_under_the_process_executor(self, capsys):
        # kill=1 with one attempt: the only cell is quarantined and the
        # roll-up still completes.
        code = main(["exp", "a-solve", "--executor", "process", "--workers", "1",
                     "--max-retries", "1", "--chaos", "kill=1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QUARANTINED" in out
        assert "task_poisoned" in out


class TestServiceCLI:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--backend", "supervised",
             "--max-queue", "8", "--batch-window", "0.1"]
        )
        assert args.port == 0 and args.backend == "supervised"
        assert args.max_queue == 8 and args.batch_window == 0.1
        assert not args.allow_shutdown

    def test_call_args(self):
        args = build_parser().parse_args(["call", "ping", "--port", "7461"])
        assert args.what == "ping" and args.port == 7461

    def test_serve_call_roundtrip(self, capsys, tmp_path):
        """The full CLI loop: serve on a thread, call it, shut it down."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--allow-shutdown"],),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                break
            except OSError:
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)

        spec_file = str(tmp_path / "tune.json")
        assert main(["spec", "dump", "--resolution", "1deg", "--nodes", "128",
                     "--with-curves", "--out", spec_file]) == 0
        assert main(["call", "ping", "--port", str(port)]) == 0
        # a TuneSpec is not a point spec: typed CLI error, daemon untouched
        assert main(["call", "solve", "--spec", spec_file,
                     "--port", str(port)]) == 1
        assert main(["call", "tune", "--spec", spec_file,
                     "--port", str(port)]) == 0
        assert main(["call", "stats", "--port", str(port)]) == 0
        assert main(["call", "shutdown", "--port", str(port)]) == 0
        thread.join(10)
        assert not thread.is_alive()

        captured = capsys.readouterr()
        assert "hslb service listening" in captured.out
        assert '"pong": true' in captured.out
        assert '"tier": "cold"' in captured.out
        assert '"predicted_total"' in captured.out
        assert "not a SolvePointSpec" in captured.err
