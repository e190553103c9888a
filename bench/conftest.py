import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
