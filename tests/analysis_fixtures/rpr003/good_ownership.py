"""RPR003 good: every sanctioned ownership shape."""


def with_managed(n: int):
    with ProcessBackend(n) as backend:
        return backend.submit(len, [1, 2])


def try_finally(n: int):
    backend = ProcessBackend(n)
    try:
        return backend.submit(len, [1, 2])
    finally:
        backend.shutdown()


def factory(n: int):
    # ownership transferred to the caller
    backend = ProcessBackend(n)
    return backend


def stored(obj, n: int) -> None:
    # ownership transferred to the object (its close path owns it)
    obj.backend = ProcessBackend(n)


def handed_off(n: int) -> None:
    # ownership transferred to the callee
    backend = ProcessBackend(n)
    register(backend)


def rebound(backend, parallel: bool):
    # a rebind pattern: the parameter is replaced by
    # a (backend, owned) resolution, so the shutdown is on an owned one
    backend, owned = run_backend(backend, parallel)
    try:
        return backend.submit(len, [1, 2])
    finally:
        if owned:
            backend.shutdown()


def register(backend) -> None:
    pass


def run_backend(backend, parallel):
    return backend, False


class ProcessBackend:
    def __init__(self, n: int) -> None:
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def submit(self, fn, *args):
        return fn(*args)

    def shutdown(self) -> None:
        pass
