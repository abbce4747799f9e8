import hypothesis
import pytest

from thcavity._integrate import solve_sampled

# property tests share the integrators' process; wall-clock deadlines only flake
hypothesis.settings.register_profile(
    "slow_ok",
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("slow_ok")


@pytest.fixture
def spy_solves(monkeypatch):
    """spy_solves(module) records every solve_sampled call the module makes
    as (rhs, t_span, y0, sample_times, kwargs) and still runs it."""
    def install(module):
        calls = []

        def spy(rhs, t_span, y0, sample_times, **kw):
            calls.append((rhs, t_span, y0, sample_times, kw))
            return solve_sampled(rhs, t_span, y0, sample_times, **kw)

        monkeypatch.setattr(module, "solve_sampled", spy)
        return calls
    return install
