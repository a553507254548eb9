"""Every subcommand's output matches the golden corpus in tests/golden/
(see tests/golden.py for the rule and for how to regenerate it)."""

import golden


def test_outputs_match_corpus(tmp_path, capsys):
    golden.run(tmp_path)
    problems, differing, total = golden.compare(tmp_path)
    with capsys.disabled():
        print(f"\ngolden: {differing} of {total} lines differ byte for byte")
    assert not problems, "\n".join(problems[:20])


def test_corpus_is_small():
    assert sum(p.stat().st_size for p in golden.GOLDEN.iterdir()) < 300_000


def test_rule_catches_a_changed_digit_or_layout():
    ref = "PMM,n,3,9.612345678901e-01"
    # One unit in the 13th digit is more than 1e-13 relative.
    assert not golden._close("PMM,n,3,9.612345678902e-01", ref)
    assert not golden._close("PMM,n,3,9.61234567890e-01", ref)  # one digit fewer
    assert not golden._close("HMM,n,3,9.612345678901e-01", ref)
    assert not golden._close("PMM,n,4,9.612345678901e-01", ref)
    ref = '  "mean": -1.1229050219363836,'
    assert golden._close('  "mean": -1.1229050219363837,', ref)
    assert not golden._close('  "mean": -1.1229050219373836,', ref)
    assert not golden._close('  "mean": 1.1229050219363836,', ref)
