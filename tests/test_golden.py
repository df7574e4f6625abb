"""The output bytes of a fixed set of CLI runs match tests/golden/manifest.json.

See golden.py for the cases and for how to rewrite the manifest when a
change alters output bytes on purpose.
"""

import golden


def test_output_bytes_match_the_golden_manifest():
    assert golden.compute() == golden.load()
