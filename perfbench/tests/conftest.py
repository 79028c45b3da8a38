import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent), str(HERE.parent.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
