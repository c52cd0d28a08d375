"""Make the tools importable: python3 -m pytest tools/tests"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
