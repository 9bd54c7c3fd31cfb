"""README's examples run as written, so the README cannot drift from the API."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from onion_anon import PosteriorQuery, posterior, posterior_oracle
from onion_anon.cli import load_observation, load_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def test_the_library_quickstart_runs():
    (code,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    exact, floor, mean, std_error = map(float, out.getvalue().split())
    assert floor <= exact <= 1.0
    assert abs(mean - exact) < 5 * std_error


def test_the_scenario_and_observation_examples_fit_together(tmp_path):
    scenario_text, observation_text = blocks("json")
    (tmp_path / "scenario.json").write_text(scenario_text, encoding="utf-8")
    (tmp_path / "view.json").write_text(observation_text, encoding="utf-8")
    scenario, user_names, dest_names = load_scenario(str(tmp_path / "scenario.json"))
    observation = load_observation(str(tmp_path / "view.json"), scenario, user_names, dest_names)
    query = PosteriorQuery(user_names.index("alice"), dest_names.index("web"))
    value = posterior(scenario, observation, query)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(posterior_oracle(scenario, observation, query), abs=1e-12)
