"""End-to-end CLI behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from jsonschema import Draft202012Validator

from powermonoid import cli

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schemas" / "cli-output.schema.json")
    .read_text()
)
Draft202012Validator.check_schema(SCHEMA)
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "powermonoid", *args],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("argv", [("search-autos", "--window", "3"), ("sum", "{0}", "{0,1}")])
def test_closed_stdout_is_not_an_error(argv):
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails; reading a few bytes through head instead would
    # race the pipe buffer, which holds the whole output
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "powermonoid", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.stderr, proc.returncode) == ("", 0)


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    VALIDATOR.validate(payload)
    return payload


# stdout digests of `factor -- X`, recorded before the search named the
# narrower factor Y: they pin each pair's orientation and the list order,
# where the frozen counts in test_monoid.py pin only the length
@pytest.mark.parametrize("x, digest", [
    ("0..15", "b7f5ab3b67ab46b81307f87a9e4bfd937065f44a5ca60e8fe5e74a0f355f0c68"),
    ("-8..7", "2e8a0cd00bb87aa57a35df3f74b2edf129b64c61900c2b811b54de9c4284133b"),
    # {0..7} + {0,10,20}
    ("{0,1,2,3,4,5,6,7,10,11,12,13,14,15,16,17,20,21,22,23,24,25,26,27}",
     "32c13c4c064c82044598d523008f160ef327bc873019027f66f47a30abaa25a7"),
    # {-5..2} + {-9,0,9}
    ("{-14,-13,-12,-11,-10,-9,-8,-7,-5,-4,-3,-2,-1,0,1,2,4,5,6,7,8,9,10,11}",
     "8dda95abcad86aa4d83c56b3658991e2e4d174b220637c72e55631b032ccac13"),
], ids=["0..15", "-8..7", "three-blocks", "three-offset-blocks"])
def test_factor_stdout_frozen(x, digest, capsys):
    assert cli.main(["factor", "--", x]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (digest, "")


@pytest.mark.parametrize("literal, reason", [("{1", "unterminated set literal"),
                                             ("{1,,2}", "empty element in set literal")],
                         ids=["unterminated", "empty-element"])
def test_malformed_literal_exits_2_and_names_it(literal, reason):
    proc = run_cli("sum", literal, "{0}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {reason} {literal!r}\n"


def wide_literal(seed, n):
    """n seeded random elements of [10**17, 10**18) as a set literal."""
    return "{" + ",".join(map(str, sorted(random.Random(seed).sample(range(10**17, 10**18), n)))) + "}"


@pytest.mark.parametrize("argv, reason", [
    (("bdim", "0..10000000"), "interval shorthand 0..10000000 spans"),
    (("bdim", "0..1000000000000"), "interval shorthand 0..1000000000000 spans"),
    # sums that may hold more elements than two shorthand operands span.
    # Before the cap, on a 2-vCPU host, these two took 6.1 s and 671 MB,
    # and 0.66 s and 262 MB; with 5 points beside the interval, 1.6 s and
    # 618 MB, growing linearly with the points
    (("sum", wide_literal(1, 2000), wide_literal(2, 2000)),
     "sum of sets of 2000 and 2000 elements may hold 4000000 elements, above the cap of 1999999"),
    (("sum", "0..999999", "{0,1000000000000}"),
     "sum of sets of 1000000 and 2 elements may hold 2000000 elements, above the cap of 1999999"),
], ids=["0..10000000", "0..1000000000000", "sum-wide-literals", "sum-far-points"])
def test_huge_interval_shorthand_is_refused_before_any_work(argv, reason, monkeypatch, capsys):
    # a refusal in well under the time limit could still hide a fast sum
    def summing(x, y):
        raise AssertionError(f"summed sets of {len(x)} and {len(y)} elements before refusing")

    monkeypatch.setattr(cli, "sumset", summing)
    start = time.perf_counter()
    code = cli.main(list(argv))
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert reason in err and err.count("\n") == 1


def test_oversized_kfold_is_refused_before_any_sum():
    # the fold of {0,1} with k = 10**6 spans 10**6 + 1 integers: 29.6 s
    # before the cap, now refused up front
    start = time.perf_counter()
    proc = run_cli("kfold", "{0,1}", "1000000")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "spans 1000001 integers, above the cap of 1000000" in proc.stderr
    assert proc.stderr.count("\n") == 1
    # at the cap itself, and for sets of width 0 at any k, the fold runs
    fold = run_json("kfold", "{0,1000}", "999")["result"]
    assert fold == "{" + ",".join(map(str, range(0, 999001, 1000))) + "}"
    assert run_json("kfold", "{3}", "1000000000")["result"] == "{3000000000}"
    assert run_cli("kfold", "{0,1000}", "1000").returncode == 2


# runs the CLI on its argv, then writes its exit code and peak RSS (KiB on
# Linux) to stderr: one line, when the CLI itself writes nothing there
MEASURE_PEAK = ("import resource, subprocess, sys\n"
                "code = subprocess.call([sys.executable, '-m', 'powermonoid', *sys.argv[1:]])\n"
                "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)")


def measure_peak(*argv):
    """Run the CLI on argv in a fresh measuring child, which no earlier child
    of the test process can mask; return its stdout, seconds and peak in MB."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", MEASURE_PEAK, *argv], capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    code, peak_kib = map(int, proc.stderr.split())
    assert (proc.returncode, code) == (0, 0)
    return proc.stdout, elapsed, peak_kib / 1024


@pytest.mark.parametrize("argv, elems, digest, seconds, mb", [
    (("sum", "0..999999", "0..999999"), range(1999999),
     "6045be62ad966416bd7e6a64469eaaa4f2281280cf7c4a232a542265ca13ce3f", 3, 350),
    (("kfold", "{0,1}", "999999"), range(1000000),
     "c5fe475222dcf6d1f5e3bac89ef562130b70492f0188d8699e9deacf8143612f", 2, 180),
    (("kfold", "{0,3,7,11,20}", "49999"), None,
     "942323bbfb94718f944b642295bda9222d2431a314d4161f6c97f8f7e9407c94", 2, 180),
    (("kfold", "{0,2}", "499999"), range(0, 1000000, 2),
     "e6fa537400036bf9212af7d5db57c01c856475a53f3183cba2fd25991548497a", 2, 120),
    # folds of up to 99 and 999 runs, one at each multiple of 100 or 1000
    (("kfold", "{0,1,100}", "9999"), None,
     "3176b353e1439931f7caae23541c3508212a5563c65024e9a4f37cac57d52320", 2, 180),
    (("kfold", "{0,1,1000}", "999"), None,
     "b61de406e8f2db621088624f0cf2e9d34dcb4f1ee1232a9044be2bff798ba0fe", 2, 120),
    # the slowest sums under their cap: 2,000,000 pairs of 18-digit
    # elements on the hashed route, and an interval shifted once per
    # element of an 18,182-element literal on the dense route
    (("sum", wide_literal(1, 1414), wide_literal(2, 1414)), None,
     "160fec49c6dd088f1e186140d7c44c142dc78bc193adb4c0765627a74b71f6e1", 8, 400),
    (("sum", "0..999999", "{" + ",".join(map(str, range(0, 10**6, 55))) + "}"), range(1999955),
     "3a7de014c552fd2f39477e13bd6f19477aad4000c32dbeabd10c52362cca273d", 5, 350),
], ids=["sum-intervals", "kfold-01", "kfold-5", "kfold-02", "kfold-100", "kfold-1000",
         "sum-hashed", "sum-dense"])
def test_near_cap_sums_finish_within_budget(argv, elems, digest, seconds, mb):
    # the widest operands the caps accept.  On a 2-vCPU host the dense route
    # took 49.5, 15.7, 16.0 and 8.1 s over the first four.  By runs, with
    # {0,1}, and {0,2} rescaled to it, folded in one step as one run, they
    # take 0.68-0.82, 0.34-0.43, 0.41-0.48 and 0.24-0.29 s and peak at 256,
    # 129, 129 and 72 MB.  The next two took 14.0-14.8 and 3.1-3.2 s while a
    # fixed cap of 64 runs sent their folds to the dense route; counted as
    # far as the cost model can use them, they take 0.43-0.60 and
    # 0.39-0.44 s and peak at 128 and 79 MB.  The last two take 2.7 s and
    # 1.4-1.7 s and peak at 344 and 256 MB
    stdout, elapsed, peak = measure_peak(*argv)
    if elems is not None:
        literal = "{" + ",".join(map(str, elems)) + "}"
        assert stdout == f'{{"op":"{argv[0]}","result":"{literal}"}}\n'.encode()
    assert hashlib.sha256(stdout).hexdigest() == digest
    assert elapsed < seconds
    assert peak < mb, f"peak {peak:.0f} MB"


def test_widest_cited_factor_finishes_within_budget():
    # 556,710 pairs and 24.2 MB of stdout.  On a 2-vCPU host it takes
    # 3.6-4.5 s and peaks at 207 MB; while each pair built its own cofactor
    # ZeroSet it took 5.3-5.7 s and peaked at 250-253 MB
    stdout, elapsed, peak = measure_peak("factor", "0..20")
    assert hashlib.sha256(stdout).hexdigest() == (
        "56eb962f8da231c07deb51c4b600408115fe1511cd6af5ec449148d7c4cfd16e")
    assert elapsed < 12
    assert peak < 235, f"peak {peak:.0f} MB"


@pytest.mark.parametrize("argv, accepted, digest, seconds, mb", [
    (("--case", "1", "--A", "{-1,0,100000000000,100000000002}",
      "--B", "{-1,0,100000000001,100000000002}"),
     ("--case", "1", "--A", "{-1,0,499990,499998}", "--B", "{-1,0,499991,499998}"),
     "977c4e364dbf3bb205f8f8b034b5371a60a516a4bfdcae0e4e95bf88e0a7f3b7", 5, 270),
    (("--case", "2", "--A", "{-2,0,1,2,5}", "--B", "{-2,0,1,5}", "--c", "3000000"),
     ("--case", "2", "--A", "{-2,0,1,2,5}", "--B", "{-2,0,1,5}", "--c", "999990"),
     "6c5193aed63fb37edee07f6e46b28956e9e439b4beaa0d18fc5571c80eb99f06", 6, 210),
], ids=["case-1", "case-2"])
def test_oversized_theorem_padding_is_refused_before_any_witness(argv, accepted, digest, seconds, mb):
    # before the cap, case 1 at a width of 3 * 10**6 took 6.0 s and at 10**11
    # ran out of memory, and case 2 with c = 3 * 10**6 took 10.2 s and 1.2 GB
    start = time.perf_counter()
    proc = run_cli("verify", "theorem", *argv)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "above the cap of 1000000" in proc.stderr and proc.stderr.count("\n") == 1
    # just under the cap the witness is built.  On a 2-vCPU host case 1
    # takes 0.9-1.2 s, peaks at 199 MB and prints 17.2 MB; case 2 takes
    # 0.8-1.0 s, peaks at 187 MB and prints 20.7 MB, where summing its
    # padded sums took 1.0-1.4 s and peaked at 221 MB, and building them
    # as Python sets peaked at 376 MB
    stdout, elapsed, peak = measure_peak("verify", "theorem", *accepted)
    assert hashlib.sha256(stdout).hexdigest() == digest
    assert elapsed < seconds
    assert peak < mb, f"peak {peak:.0f} MB"


def test_nested_reversal_is_read_by_its_parity(capsys):
    # 1,200 nested prefixes overflowed the recursive parser; negation is an
    # involution, so only the parity of the prefixes counts
    def apply(auto):
        return cli.main(["apply", auto, "{-1,0,2}"]), capsys.readouterr()

    assert apply("reversal:" * 5001 + "identity") == apply("reversal:identity")
    assert apply("reversal:" * 5000 + "identity") == apply("identity")
    code, (out, err) = apply("reversal:" * 5001 + "rotation")
    assert (code, out, err) == (2, "", "error: unknown automorphism name: 'rotation'\n")


def test_usage_error_exits_2():
    assert run_cli("sum", "{0}").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("search-autos", "--window", "9").returncode == 2


def test_verify_theorem_requires_sets():
    assert run_cli("verify", "theorem", "--case", "1").returncode == 2


def test_search_autos_refuses_prune():
    # the search always prunes; the unpruned rule is a test reference only
    proc = run_cli("search-autos", "--window", "2", "--prune", "off")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --prune off" in proc.stderr
    assert "--prune" not in run_cli("search-autos", "--help").stdout


def test_search_autos_oracle_rejects_large_windows():
    assert run_cli("search-autos", "--window", "3", "--oracle").returncode == 2


@pytest.mark.parametrize("m", ["4", "5", "6"])
def test_search_autos_refuses_unlistable_windows(m):
    start = time.perf_counter()
    proc = run_cli("search-autos", "--window", m)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--window {m} is refused" in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("lemma", ["lemma21", "lemma23"])
@pytest.mark.parametrize("samples", ["-5", "0", "50001"])
def test_verify_refuses_sample_counts_out_of_range(lemma, samples):
    start = time.perf_counter()
    proc = run_cli("verify", lemma, "--samples", samples)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--samples must be between 1 and 50000" in proc.stderr and proc.stderr.count("\n") == 1


_DIVERGENT = ("--A", "{-2,0,3,5}", "--B", "{-2,0,2,5}")
_CASE_2 = ("--case", "2", "--A", "{-2,0,1,2,5}", "--B", "{-2,0,1,5}")
_PADDED = (*_CASE_2, "--c", "5")


def _lemma21(seed, samples):
    """The JSON stdout of verify lemma21: three passing checks, each echoing seed and samples."""
    witness = f'"witness":{{"seed":{seed},"samples":{samples},"failures":0}}'
    checks = ",".join(f'{{"name":"{name}","pass":true,{witness}}}' for name in
                      ("absorption-identity-random", "bound-transport-identity",
                       "bound-transport-negation"))
    return f'{{"lemma":"lemma21","checks":[{checks}]}}\n'


_LEMMA22 = ('{"lemma":"lemma22","checks":['
            '{"name":"projection-pins-unit-steps","pass":true,'
            '"witness":{"bound":10,"solutions":240,"projection":[[0,1],[1,0]]}},'
            '{"name":"down-branch-forces-unit-image","pass":true,"witness":{"tuples":120}},'
            '{"name":"up-branch-forces-unit-image","pass":true,"witness":{"tuples":120}}]}\n')

# (argv, exit code, stdout, stderr) of cli.main, each recorded from the
# command line before a change that had to keep it byte-identical.  A
# stdout written "sha256:<hex>" pins a long output by its digest.  This is
# the one place that pins CLI output, and every JSON stdout is also checked
# against the schema.
FROZEN = [
    (("sum", "{-1,0,2}", "{0,1,3}"), 0, '{"op":"sum","result":"{-1,0,1,2,3,5}"}\n', ""),
    (("sum", "--output", "plain", "{-1,0,2}", "{0,1,3}"), 0, "{-1,0,1,2,3,5}\n", ""),
    # "--" keeps argparse from reading a leading-minus literal as a flag
    (("sum", "--", "-1..1", "0..2"), 0, '{"op":"sum","result":"{-1,0,1,2,3}"}\n', ""),
    (("kfold", "{-1,0,2}", "2"), 0, '{"op":"kfold","result":"{-2,-1,0,1,2,4}"}\n', ""),
    (("kfold", "--output", "plain", "{-1,0,2}", "2"), 0, "{-2,-1,0,1,2,4}\n", ""),
    (("bdim", "{-5,-4,-2,0,1,5,6,7}"), 0, '{"op":"bdim","result":4}\n', ""),
    (("bdim", "--output", "plain", "{-5,-4,-2,0,1,5,6,7}"), 0, "4\n", ""),
    (("runs", "{-5,-4,-2,0,1,5,6,7}"), 0,
     '{"op":"runs","result":[[-5,-4],[-2,-2],[0,1],[5,7]]}\n', ""),
    (("runs", "--output", "plain", "{-5,-4,-2,0,1,5,6,7}"), 0, "[[-5,-4],[-2,-2],[0,1],[5,7]]\n", ""),
    (("apply", "negation", "{-1,0,2}"), 0, '{"op":"apply","result":"{-2,0,1}"}\n', ""),
    (("apply", "--output", "plain", "negation", "{-1,0,2}"), 0, "{-2,0,1}\n", ""),
    (("apply", "max-reflection", "{0,2,3}"), 0, '{"op":"apply","result":"{0,1,3}"}\n', ""),
    (("apply", "reversal:negation", "{-1,0,2}"), 0, '{"op":"apply","result":"{-1,0,2}"}\n', ""),
    (("factor", "{-1,0,2}"), 0, '{"set":"{-1,0,2}","atom":true,"factorizations":[]}\n', ""),
    (("factor", "--output", "plain", "{-1,0,2}"), 0, "set: {-1,0,2}\natom: true\n", ""),
    (("factor", "{-1,0,1,2}"), 0,
     '{"set":"{-1,0,1,2}","atom":false,"factorizations":'
     '[["{-1,0}","{0,1,2}"],["{-1,0}","{0,2}"],["{-1,0,1}","{0,1}"]]}\n', ""),
    (("factor", "--output", "plain", "{-1,0,1,2}"), 0,
     "set: {-1,0,1,2}\natom: false\n{-1,0} + {0,1,2}\n{-1,0} + {0,2}\n{-1,0,1} + {0,1}\n", ""),
    (("factor", "{-2,-1,0,1,2}"), 0,
     '{"set":"{-2,-1,0,1,2}","atom":false,"factorizations":'
     '[["{-2,-1,0}","{0,1,2}"],["{-2,-1,0}","{0,2}"],["{-2,-1,0,1}","{0,1}"],'
     '["{-2,0}","{0,1,2}"],["{-2,0,1}","{0,1}"],["{-1,0}","{-1,0,1,2}"],'
     '["{-1,0}","{-1,0,2}"],["{-1,0,1}","{-1,0,1}"]]}\n', ""),
    (("verify", "lemma21", "--samples", "30"), 0, _lemma21(0, 30), ""),
    (("verify", "lemma21", "--samples", "40"), 0, _lemma21(0, 40), ""),
    # the seed is echoed in every witness
    (("verify", "lemma21", "--seed", "1", "--samples", "30"), 0, _lemma21(1, 30), ""),
    (("verify", "lemma21", "--seed", "2", "--samples", "30"), 0, _lemma21(2, 30), ""),
    (("verify", "lemma21", "--seed", "5", "--samples", "30"), 0, _lemma21(5, 30), ""),
    (("verify", "lemma21", "--samples", "30", "--output", "plain"), 0,
     "absorption-identity-random: pass\nbound-transport-identity: pass\nbound-transport-negation: pass\n",
     ""),
    (("verify", "lemma22"), 0, _LEMMA22, ""),
    (("verify", "lemma22", "--samples", "40"), 0, _LEMMA22, ""),
    (("verify", "lemma22", "--output", "plain"), 0,
     "projection-pins-unit-steps: pass\ndown-branch-forces-unit-image: pass\n"
     "up-branch-forces-unit-image: pass\n", ""),
    (("verify", "lemma23", "--samples", "30"), 0,
     "sha256:674440a891ca49d8c16d835675cbb5c7b6915ec9b6e00d5051b4ed3be9f276b8", ""),
    (("verify", "lemma23", "--samples", "40"), 0,
     "sha256:eade517c61765962ea6da09574d70ad0e364e56c933154bf4dbfebcfe6eda22f", ""),
    (("verify", "lemma23", "--seed", "5", "--samples", "30"), 0,
     "sha256:d454f564bcabfae486206b97a8f4147dea4cf9d151ad8e7f81c58de20a4b1d3d", ""),
    (("verify", "lemma23", "--samples", "30", "--output", "plain"), 0,
     "bounded-candidates-and-atom: pass\ninterval-generation: pass\ninterval-collapse-contrast: pass\n"
     "negation-conjugation-fixes-anchored: pass\n", ""),
    (("verify", "theorem", "--case", "1", "--A", "{-2,0,2,5}", "--B", "{-2,0,3,5}"), 0,
     '{"case":1,"swapped":false,"helper":"{0,1}","lhs":"{-2,-1,0,1,2,3,5,6}",'
     '"rhs":"{-2,-1,0,1,3,4,5,6}","witness_point":2,"pass":true}\n', ""),
    (("verify", "theorem", "--case", "1", *_DIVERGENT), 0,
     '{"case":1,"swapped":true,"helper":"{0,1}","lhs":"{-2,-1,0,1,2,3,5,6}",'
     '"rhs":"{-2,-1,0,1,3,4,5,6}","witness_point":2,"pass":true}\n', ""),
    (("verify", "theorem", "--case", "1", *_DIVERGENT, "--output", "plain"), 0,
     "case: 1\nswapped: true\nhelper: {0,1}\nlhs: {-2,-1,0,1,2,3,5,6}\nrhs: {-2,-1,0,1,3,4,5,6}\n"
     "witness_point: 2\npass: true\n", ""),
    (("verify", "theorem", *_CASE_2, "--c", "11"), 0,
     '{"case":2,"swapped":false,"helper":"{0,5,6,7,8,9,10,11}",'
     '"lhs":"{-2,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}",'
     '"rhs":"{-2,0,1,3,4,5,6,7,8,9,10,11,12,13,14,15,16}","witness_point":2,"pass":true}\n', ""),
    (("verify", "theorem", *_PADDED), 1,
     '{"case":2,"swapped":false,"error":"c below the minimum padding width 11","pass":false}\n', ""),
    (("verify", "theorem", *_PADDED, "--output", "plain"), 1,
     "error: c below the minimum padding width 11\npass: false\n", ""),
    (("search-autos", "--window", "1"), 0,
     '{"m":1,"survivors":2,"elements":["{0}","{-1,0}","{0,1}","{-1,0,1}"],'
     '"maps":[["{0}","{-1,0}","{0,1}","{-1,0,1}"],["{0}","{0,1}","{-1,0}","{-1,0,1}"]]}\n', ""),
    (("search-autos", "--window", "2"), 0,
     "sha256:3f14d626ad4c76622c0a30654dc8222431c019c03e31745ef6b0c3c2c423c4a9", ""),
    (("search-autos", "--window", "2", "--oracle"), 0,
     "sha256:2fb91d94942072556d06ec94795eb53af162c05e9058b0669a47d5a1e8eed05f", ""),
    (("search-autos", "--window", "2", "--oracle", "--output", "plain"), 0,
     "m: 2\nsurvivors: 4\noracle_survivors: 4\noracle_matches: true\n", ""),
    (("search-autos", "--window", "3"), 0,
     "sha256:ac3ccb2db623c6240ef6715bfe8f865064f051cd7ef6d62cbe7b71854038951c", ""),
    (("search-autos", "--window", "3", "--output", "plain"), 0,
     "m: 3\nsurvivors: 645120\nmaps_truncated: true\n", ""),
    (("verify", "lemma21", "--samples", "0"), 2, "", "error: --samples must be between 1 and 50000\n"),
    (("verify", "theorem", "--case", "1"), 2, "", "error: verify theorem requires --A and --B\n"),
    (("search-autos", "--window", "0"), 2, "", "error: --window must be between 1 and 3\n"),
    (("search-autos", "--window", "4"), 2, "",
     "error: --window 4 is refused: its survivors include every permutation of at least 33 "
     "isolated sets, too many to list; search-autos takes windows 1..3\n"),
    (("search-autos", "--window", "7"), 2, "", "error: --window must be between 1 and 3\n"),
    (("search-autos", "--window", "3", "--oracle"), 2, "",
     "error: --oracle is exhaustive over bijections; windows above 2 are not supported\n"),
    (("sum", "{-1,0,2}", "bad"), 2, "",
     "error: expected a set literal or LO..HI interval, got 'bad'\n"),
    (("apply", "rotation", "{0,1}"), 2, "", "error: unknown automorphism name: 'rotation'\n"),
]

# one validator per output shape: the schema narrowed to one of its kinds
KINDS = {ref["$ref"].rpartition("/")[2]: Draft202012Validator({"$defs": SCHEMA["$defs"], **ref})
         for ref in SCHEMA["oneOf"]}


def test_stdout_frozen(capsys):
    kinds = set()
    for argv, code, stdout, stderr in FROZEN:
        assert cli.main(list(argv)) == code, argv
        out, err = capsys.readouterr()
        if out and "plain" not in argv:
            payload = json.loads(out)
            VALIDATOR.validate(payload)
            kinds.update(kind for kind, validator in KINDS.items() if validator.is_valid(payload))
        if stdout.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert (out, err) == (stdout, stderr), argv
    # the JSON rows show every shape the schema allows
    assert kinds == set(KINDS)


_UNLISTABLE = ("error: --window {} is refused: its survivors include every permutation of at "
               "least 33 isolated sets, too many to list; search-autos takes windows 1..3\n")


@pytest.mark.parametrize("argv, stderr", [
    (("search-autos", "--window", "4"), _UNLISTABLE.format(4)),
    (("search-autos", "--window", "5"), _UNLISTABLE.format(5)),
    (("search-autos", "--window", "6"), _UNLISTABLE.format(6)),
    (("search-autos", "--window", "3", "--oracle"),
     "error: --oracle is exhaustive over bijections; windows above 2 are not supported\n"),
    (("search-autos", "--window", "0"), "error: --window must be between 1 and 3\n"),
    (("search-autos", "--window", "7"), "error: --window must be between 1 and 3\n"),
], ids=["window-4", "window-5", "window-6", "window-3-oracle", "window-0", "window-7"])
def test_search_refuses_before_it_builds_a_window(argv, stderr, monkeypatch, capsys):
    # a refusal in well under the time limit could still hide a fast build of
    # the window, so building one fails the test
    import powermonoid.search as search

    def building(m):
        raise AssertionError(f"built window {m} before refusing")

    monkeypatch.setattr(search, "build_window", building)
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize("argv", [("verify", "lemma22"), ("verify", "theorem", *_DIVERGENT)])
def test_verify_ignores_samples_where_unread(argv, capsys):
    # lemma22 and theorem never read --samples, so no count is refused there
    expected = cli.main(list(argv)), capsys.readouterr().out
    assert expected[0] == 0 and expected[1]
    for samples in ("0", "-5"):
        assert (cli.main([*argv, "--samples", samples]), capsys.readouterr().out) == expected


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the library modules, each loaded by the stdlib-only check below
LIBRARY = sorted(path.stem for path in (SRC / "powermonoid").glob("*.py")
                 if path.stem not in ("__init__", "__main__", "cli"))


def run_isolated(code):
    """Run code in a child with -S, which keeps site-packages off the path,
    and this checkout's src first on it.  A DeprecationWarning is raised
    there as an error, so the child fails on any deprecated call it makes."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    return subprocess.run([sys.executable, "-S", "-W", "error::DeprecationWarning", "-c", code],
                          capture_output=True, text=True, timeout=60)


def test_package_imports_only_the_standard_library():
    # a third-party import fails outright under -S; the child loads every
    # library module, runs a command and lists the top-level modules it has
    proc = run_isolated(
        "import importlib\n"
        f"for name in {LIBRARY!r}:\n"
        "    importlib.import_module('powermonoid.' + name)\n"
        "from powermonoid.cli import main\n"
        "code = main(['sum', '{0}', '{0}'])\n"
        "import json\n"
        "top = sorted({name.partition('.')[0] for name in sys.modules})\n"
        "ours = sorted(name for name in sys.modules if name.startswith('powermonoid.'))\n"
        "print(json.dumps([top, ours]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"op": "sum", "result": "{0}"}
    loaded, submodules = json.loads(proc.stderr)
    assert "powermonoid" in loaded
    assert [name for name in loaded
            if name not in ("powermonoid", "__main__") and name not in sys.stdlib_module_names] == []
    assert submodules == sorted(f"powermonoid.{name}" for name in [*LIBRARY, "cli"])
    assert {"autos", "boxing", "finset", "monoid", "proofsteps", "search"} <= set(LIBRARY)


# the library modules each command loads, besides the package and cli;
# a module that shows up here unasked costs every such process its compile
COMMAND_MODULES = [
    (("sum", "{0}", "{0}"), 0, ["finset"]),
    (("kfold", "{0,1}", "2"), 0, ["finset"]),
    (("bdim", "{0,2}"), 0, ["boxing", "finset"]),
    (("runs", "{0,2}"), 0, ["boxing", "finset"]),
    (("factor", "{0,1,2}"), 0, ["finset", "monoid"]),
    (("apply", "negation", "{0,1}"), 0, ["autos", "finset", "monoid"]),
    (("verify", "lemma22"), 0, ["autos", "finset", "monoid"]),
    (("verify", "theorem", *_DIVERGENT), 0, ["boxing", "finset", "monoid", "proofsteps"]),
    (("search-autos", "--window", "1"), 0, ["finset", "monoid", "search"]),
    (("search-autos", "--window", "4"), 2, ["finset", "monoid", "search"]),
    (("verify", "lemma21", "--samples", "20"), 0, ["autos", "finset", "monoid"]),
    (("verify", "lemma23", "--samples", "20"), 0, ["autos", "finset", "monoid"]),
    (("verify", "theorem", *_CASE_2, "--c", "11"), 0, ["boxing", "finset", "monoid", "proofsteps"]),
    (("search-autos", "--window", "2", "--oracle"), 0, ["finset", "monoid", "search"]),
    (("search-autos", "--window", "3"), 0, ["finset", "monoid", "search"]),
    (("factor", "0..15"), 0, ["finset", "monoid"]),
]


@pytest.mark.parametrize("argv, code, modules", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(argv, code, modules):
    start = time.perf_counter()
    proc = run_isolated(
        "import json\n"
        "from powermonoid.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    # a bound for the largest rows, window 3 and factor 0..15; each took
    # under 0.2 s on a 2-vCPU host
    assert time.perf_counter() - start < 10
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert [name for name in loaded if name.startswith("powermonoid")] == sorted(
        ["powermonoid", "powermonoid.cli", *(f"powermonoid.{name}" for name in modules)])
    # frozen dataclasses pulled both in, at about 7 ms a process, and one
    # typing.Union in autos about 5 ms
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "typing" not in loaded


def test_bare_package_import_loads_no_submodule():
    proc = run_isolated(
        "import json, powermonoid\n"
        "def ours():\n"
        "    return sorted(name for name in sys.modules if name.startswith('powermonoid.'))\n"
        "before = ours()\n"
        "powermonoid.sumset\n"
        "print(json.dumps([before, ours()]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["powermonoid.finset"]]


def test_submodule_attribute_loads_that_module_alone():
    # the package reads an exported submodule name as its import: search
    # brings finset and monoid, which it imports itself, and nothing else
    proc = run_isolated(
        "import json, powermonoid\n"
        "cap = powermonoid.search.MAX_WINDOW\n"
        "ours = sorted(name for name in sys.modules if name.startswith('powermonoid.'))\n"
        "print(json.dumps([cap, ours]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        6, ["powermonoid.finset", "powermonoid.monoid", "powermonoid.search"]]


def test_search_help_names_the_window_cap_of_search():
    # cli writes the cap out in its help rather than import search to read it
    from powermonoid.search import LIST_MAX_WINDOW

    proc = run_cli("search-autos", "--help")
    assert proc.returncode == 0
    assert f"window radius (1..{LIST_MAX_WINDOW})" in proc.stdout


# the names the package exported when it imported every submodule eagerly
EXPORTS = {
    "finset": ["MAX_ELEMENT", "FinSet", "bounds", "format_set", "interval", "kfold", "make_set",
               "parse_set", "reflect", "sumset", "sumset_naive", "translate"],
    "boxing": ["RunProfile", "bdim", "from_runs", "runs"],
    "monoid": ["UNIT", "ZeroSet", "as_zero_set", "candidates_with_bounds", "factorizations",
               "is_atom"],
    "autos": ["Auto", "BoundTransport", "CheckResult", "Identity", "MaxReflection", "Negation",
              "Reversal", "Table", "absorption_suite", "apply", "check_absorption_identity",
              "predict_bounds", "rigidity_suite", "solve_step_preimage_system",
              "step_preimage_suite", "transport_from_images", "verify_homomorphism"],
    "proofsteps": ["Divergence", "DivergenceWitness", "OrientationError", "first_divergence",
                   "induction_measure", "random_run_end_pair", "random_run_start_pair",
                   "run_end_witness", "run_start_witness"],
    "search": ["MAX_WINDOW", "WindowMaps", "WindowUniverse", "as_table_spec", "build_window",
               "find_window_automorphisms", "identity_table", "negation_table",
               "verify_window_map", "window_survivors_oracle"],
}


def test_lazy_namespace_keeps_the_public_api():
    import importlib

    import powermonoid

    names = [name for module in EXPORTS.values() for name in module]
    assert len(names) == len(set(names)) == 58
    assert sorted(powermonoid.__all__) == sorted(names)
    assert len(powermonoid.__all__) == 58
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"powermonoid.{module}")
        assert getattr(powermonoid, module) is home
        for name in exported:
            assert getattr(powermonoid, name) is getattr(home, name), name
    star: dict = {}
    exec("from powermonoid import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(names)
    assert all(star[name] is getattr(powermonoid, name) for name in names)
    assert set(names) | set(EXPORTS) <= set(dir(powermonoid))
    with pytest.raises(AttributeError, match=r"^module 'powermonoid' has no attribute 'nope'$"):
        powermonoid.nope
    assert not hasattr(powermonoid, "cli_main")
    assert powermonoid.__version__ == "0.1.0"
