"""Seeded RB001 violations: bare ``except:`` clauses and broad exception
handlers that swallow.

Not importable as part of the real package — this fixture only feeds the
analyzer tests (see README.md in this directory). The filename must not
look like test code (``test_*`` / ``conftest``): RB001 exempts broad
swallows there by name, and these seeds must stay visible.
"""


def swallow_bare(run):
    try:
        return run()
    except:  # seed:RB001-bare
        pass


def bare_but_handled(text):
    try:
        return int(text)
    except:  # seed:RB001-bare-handled
        return None


def swallow_exception(run):
    try:
        return run()
    except Exception:  # seed:RB001-exception
        pass


def swallow_base_exception(run):
    try:
        return run()
    except BaseException:  # seed:RB001-base
        ...


def swallow_dotted(run, builtins):
    try:
        return run()
    except builtins.Exception:  # seed:RB001-dotted
        pass


def swallow_in_tuple(run):
    try:
        return run()
    except (ValueError, Exception):  # seed:RB001-tuple
        pass


def swallow_retry_loop(runs):
    for run in runs:
        try:
            return run()
        except Exception:  # seed:RB001-continue
            continue
    return None


def narrow_handler_is_fine(run):
    try:
        return run()
    except ValueError:
        pass  # narrow type: not RB001 (deliberate, reviewable choice)


def broad_but_handled_is_fine(run, log):
    try:
        return run()
    except Exception as exc:
        log(exc)  # observable handling: not a swallow
        return None


def broad_reraise_is_fine(run):
    try:
        return run()
    except Exception:
        raise


def sanctioned_swallow(run):
    try:
        return run()
    except Exception:  # repro-lint: skip=RB001
        pass
