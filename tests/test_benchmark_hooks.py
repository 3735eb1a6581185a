"""The traced benchmark reads the program through names it patches.

`perfbench/tracer.py` replaces public functions and methods of
`smartbizsim.*` with timing wrappers by name, so renaming or deleting
one of them breaks the traced benchmark, not the program. It counts S9
denials by catching `AuthDenied` and `UnknownUser` around
`middleware.authenticate`, so the child's scenario has one wrong
credential. `install` patches modules for the whole process, so it runs
in a child process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import sys
from pathlib import Path
from smartbizsim import cli
from smartbizsim.errors import replace
from smartbizsim.scenario import default_scenario
from smartbizsim.trace import canonical_json
from tracer import Tracer, install

scenario = default_scenario()
first, *rest = scenario.commands
wrong = replace(first, credential=first.credential + "-wrong")
Path("scenario.json").write_text(canonical_json(replace(scenario, commands=(wrong, *rest))))
tracer = Tracer("t")
install(tracer)
code = cli.main(["dmaic", "--scenario", "scenario.json", "--out", sys.argv[1]])
calls = {name: stat[0] for name, stat in tracer.stats.items()}
missed = [name for name in ("world.send_message", "middleware.wrap",
                            "middleware.authenticate", "calendars.find_common_slot",
                            "controls.build_plan", "calendars.add_busy",
                            "world.schedule_meeting")
          if not calls.get(name)]
runs = {run: calls.get(f"world.run_until.{run}") for run in ("baseline", "secured")}
booked = None if runs == {"baseline": 1, "secured": 1} else f"runs booked as {runs}"
denied = tracer.counters["auth_denied"]
counted = None if denied >= 1 else f"{denied} S9 denials counted"
sys.exit(code or (f"traced names never called: {missed}" if missed else booked or counted))
"""


def test_the_tracer_installs_and_times_a_dmaic_run(tmp_path):
    # no bytecode: the run leaves nothing beside the benchmark's sources
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
