import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same cases on every run and keep no example
# database, so a run is reproducible. Hypothesis still caches the constants
# it reads from the source; that cache goes to a directory removed at exit,
# so a run leaves no .hypothesis/ behind.
settings.register_profile("defifix", derandomize=True, database=None)
settings.load_profile("defifix")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria lines after the run, capture or not."""
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
