"""CLI runner tests."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown(self, capsys):
        assert main(["nope"]) == 2

    def test_fast_experiment_runs(self, capsys):
        # table4 is pure modeling — instant.
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "GPUs" in out
        assert "512" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "Microbatch" in capsys.readouterr().out

    def test_all_names_have_descriptions(self):
        for fn, desc in EXPERIMENTS.values():
            assert callable(fn)
            assert len(desc) > 5


class TestTraceCommand:
    def test_trace_runs_and_exports(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code = main(["trace", "--collective", "adasum_rvh", "--ranks", "4",
                     "--floats", "256", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "bytes on the wire" in out
        assert out_path.exists()

    def test_trace_straggler(self, capsys):
        code = main(["trace", "--collective", "ring", "--ranks", "4",
                     "--floats", "256", "--straggler", "1",
                     "--straggler-factor", "10"])
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_trace_kill_exits_nonzero_with_diagnostic(self, capsys):
        code = main(["trace", "--collective", "adasum_rvh", "--ranks", "4",
                     "--floats", "256", "--kill", "2", "--timeout", "5"])
        assert code == 3
        assert "rank 2 killed" in capsys.readouterr().err

    def test_trace_unknown_collective(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--collective", "nope"])

    def test_trace_hierarchical_runs_the_registered_cell(self, capsys):
        """Every ``--collective`` is its registered cell through
        ``cluster_allreduce`` (``hierarchical`` the ``("adasum",
        "hierarchical")`` cell at the default 2 GPUs per node); each
        line is the modeled cost of the direct collective, pinned."""
        for collective, ms, nbytes in (
            ("adasum_rvh", "0.027", 230528),
            ("adasum_ring", "0.036", 229376),
            ("ring", "0.031", 229376),
            ("rd", "0.011", 393216),
            ("hierarchical", "0.021", 229952),
        ):
            assert main(["trace", "--collective", collective]) == 0
            assert (f"{collective} over 8 ranks completed: simulated latency "
                    f"{ms} ms, {nbytes} bytes on the wire"
                    ) in capsys.readouterr().out, collective

    def test_trace_hierarchical_rejects_an_indivisible_world(self, capsys):
        # A usage error (2), not a comm failure (3) from every rank.
        with pytest.raises(SystemExit) as info:
            main(["trace", "--collective", "hierarchical", "--ranks", "6",
                  "--gpus-per-node", "4"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "not a multiple of --gpus-per-node 4" in err
        assert "CommError" not in err

