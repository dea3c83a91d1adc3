"""Fuzz every registered check over small, hostile domains of its options.

Every input must end in a report (exit 0 or 1), `FAIL <field>: ...` (exit 1)
or a click usage error (exit 2), never in a traceback; a passing report must
be byte-identical when the invocation is repeated.  Every report has the
published shape: a json report validates against `REPORT_SCHEMA` with its
`summary.pass` equal to the exit code's verdict, and a csv report has one
field per column of its sorted header.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orbk.cli import CHECKS, REPORT_SCHEMA, main  # noqa: E402

jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
REPORT = jsonschema.Draft202012Validator(REPORT_SCHEMA)

# (usual, hostile) values of each kind of option
INTS = (["1", "2", "3"], ["0", "-1"])
FLOATS = (["0.1", "0.5", "1", "3"], ["0", "-1", "nan", "inf", "1e-9"])
DEGREES = (["2", "6", "2:8:2", "1:5", "0:4"],
           ["0", "-2", "3:1", "-4:4:2", "1:5:0", "1:2:3:4", ":", "", "x"])
MODELS = ([None, "football", '{"kind":"wpl","d":[2,3]}'],
          ["wpl", "cone", '{"kind":"cone","group":{"order":3,"weights":[1,2]}}',
           '{"kind":"football","n":"x"}', "[1]", "{", "no/such/file.json"])
ILL_TYPED = ["x", [1], {}, None, True]
# per check, usual values of its own so that drawn invocations reach a
# report: recover's bumps all give a positive form ((0.1, 1, 2) would not) and
# its degrees a curve that can pass; fit and decay get footballs (their closed
# form knows no other model), enough degrees for a fit and radii away from the
# cone point, localmodel power-of-two grids, and rrk also wide ranges in
# either direction
FIT = {"--model": ([None, "football"], MODELS[0][2:] + MODELS[1]),
       "--m": (["10:200:2", "12:240:3", "20:400:4"], DEGREES[1]),
       "--r": (["0.5", "1"], FLOATS[1])}
GRID = (["64", "128", "256", "512"], INTS[1] + ["1", "100"])
USUAL = {
    "recover": {"--amplitude": (["0.05", "0.1"], FLOATS[1]),
                "--center": (["0.5", "1"], FLOATS[1]),
                "--width": (["3", "3.5"], FLOATS[1] + ["0.005"]),
                "--m": (["20", "40", "20:60:20", "20:100:40"], DEGREES[1])},
    "fit": FIT,
    "decay": FIT,
    "localmodel": {"--x-points": GRID, "--y-points": GRID},
    "rrk": {"--m": (DEGREES[0] + ["0:400", "400:0:-7"], DEGREES[1])},
}
# hostile in three options at once: a bump 0.01 wide whose form is negative
# (rho reaches -241) between the points of a t-grid 0.0125 apart
NARROW_BUMP = {"--m": "20:100:20", "--amplitude": "1e-3", "--center": "1.006",
               "--width": "0.005"}


def _values(name, flag, kind):
    if flag in USUAL.get(name, {}):
        return USUAL[name][flag]
    if flag == "--model":
        return MODELS
    if flag == "--n":
        return INTS[0], INTS[1] + [None]
    if flag == "--seed":  # seeds 2-4 draw dim-3 charsum cases of ~0.2-0.4 s each
        return ["0", "1"], ["-1"]
    if flag == "--m" and kind is str:
        return DEGREES
    return INTS if kind is int else FLOATS


def _invocation(chk):
    """Usual values for every declared option, at most one of them replaced
    by a hostile value, a format, and an optional config file that sets one
    option to a string or an ill-typed value."""
    domains = [_values(chk.name, flag, kind) for flag, kind, _ in chk.all_options()]
    indices = st.integers(0, len(domains) - 1)
    return st.tuples(
        st.tuples(*(st.sampled_from(usual) for usual, _ in domains)),
        st.none() | indices.flatmap(
            lambda i: st.tuples(st.just(i), st.sampled_from(domains[i][1]))),
        st.sampled_from(["json", "csv"]),
        st.none() | indices.flatmap(
            lambda i: st.tuples(st.just(i), st.sampled_from(domains[i][0] + ILL_TYPED))),
    )


def _argv(chk, drawn):
    values, hostile, fmt, config = drawn
    values = list(values)
    if hostile is not None:
        values[hostile[0]] = hostile[1]
    argv = [chk.name, "--format", fmt, "--out", "report"]
    for (flag, _, _), value in zip(chk.all_options(), values):
        if value is not None:
            argv += [flag, value]
    if config is not None:
        index, value = config
        name = chk.all_options()[index][0].lstrip("-").replace("-", "_")
        Path("cfg.json").write_text(json.dumps({name: value}))
        argv += ["--config", "cfg.json"]
    return argv


def _check_shape(path, fmt, passed):
    """Check the report at `path` against the published shape."""
    if fmt == "json":
        report = json.loads(path.read_text())
        REPORT.validate(report)
        assert report["summary"]["pass"] is passed
    else:
        header, *lines = path.read_text().splitlines()
        keys = header.split(",")
        assert keys == sorted(set(keys))
        assert all(len(line.split(",")) == len(keys) for line in lines)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_input_ends_in_a_report_or_a_named_failure(name):
    chk = CHECKS[name]
    shapes = set()  # formats of the reports checked
    # the check's own defaults (on the football of order 2) write a report
    defaults = tuple("2" if flag == "--n" else None if default is None else str(default)
                     for flag, _, default in chk.all_options())

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(_invocation(chk))
    @example((defaults, None, "json", None))
    def run(drawn):
        runner = CliRunner()
        with runner.isolated_filesystem():
            argv = _argv(chk, drawn)
            result = runner.invoke(main, argv)
            assert result.exit_code in (0, 1, 2), (argv, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (argv, result.exception)
            if Path("report").exists():
                assert result.exit_code in (0, 1), argv
                _check_shape(Path("report"), drawn[2], result.exit_code == 0)
                shapes.add(drawn[2])
            if result.exit_code == 0:
                first = Path("report").read_bytes()
                again = runner.invoke(main, argv)
                assert again.exit_code == 0
                assert Path("report").read_bytes() == first, argv

    if name == "recover":
        run = example((tuple(NARROW_BUMP.get(flag, value) for (flag, _, _), value
                             in zip(chk.all_options(), defaults)), None, "json", None))(run)
    run()
    assert "json" in shapes  # at least one report was validated against the schema
