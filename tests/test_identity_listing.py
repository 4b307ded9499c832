"""The byte-identity listing of tools/identity_digests.py, pinned.

The listing digests every file a fixed set of planner runs writes: the
CLI run, explore and postopt outputs, the LP files and the plan-large
pipeline runs, most of which tests/test_seeded_outputs.py does not
cover.  The test runs the script on this checkout's src with the
running interpreter and compares its last line with LISTING.

A change to the search itself changes the listing.  Such a change
updates LISTING and records the update in CHANGES.md, as it does for
test_seeded_outputs.DIGESTS.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LISTING = "e0dbc3fa72b852ca5ea196b34ffbd94db89b1f9d40566811aae4cce009f347b8"


def test_identity_listing_is_pinned():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity_digests.py"),
         "--src", str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == f"listing of 61 files: {LISTING}"
