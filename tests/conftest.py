"""Shared fixtures: `invoke` runs the `hotspots` command line in-process."""

import contextlib
import io
from types import SimpleNamespace

import pytest

from hotspots.cli import main


class _Tee(io.StringIO):
    """One stream's text, also copied into a log shared with the other stream."""

    def __init__(self, log: io.StringIO):
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.write(text)
        return super().write(text)


def _invoke(argv: list[str]) -> SimpleNamespace:
    """Run main(argv); `output` holds stdout and stderr in the order written."""
    log = io.StringIO()
    out, err = _Tee(log), _Tee(log)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:  # a traceback would be exit 1
            exit_code, exception = 1, exc
    return SimpleNamespace(exit_code=exit_code, output=log.getvalue(),
                           stdout=out.getvalue(), stderr=err.getvalue(),
                           exception=exception)


@pytest.fixture()
def invoke():
    return _invoke
