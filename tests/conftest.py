import sys
import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# Even without a database, Hypothesis caches the constants it finds in source
# files; keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "soa-hitlcps-hypothesis")
