from satchain import checks


class TestFeasibilityInvariance:
    def test_failing_online_run_is_a_counted_violation(self, monkeypatch):
        def infeasible_run(*args, **kwargs):
            raise AssertionError("slot 3: infeasible profile: ['link 4 over capacity']")

        monkeypatch.setattr(checks, "run_online", infeasible_run)
        ok, detail, checked = checks.check_feasibility_invariance(seed=0, loads=(3,), instances=1, online_runs=2)
        assert ok is False
        assert detail.startswith(f"{checked} feasibility checkpoints, 2 violations")
        assert "slot 3: infeasible profile" in detail
