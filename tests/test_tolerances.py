"""Each numerical tolerance has one value: no function takes it as an argument."""

import importlib
import inspect
import pkgutil

import etale_kit


def _functions(namespace, module):
    """Every function and method defined in `module`, found under `namespace`."""
    for value in vars(namespace).values():
        if isinstance(value, (classmethod, staticmethod)):
            value = value.__func__
        if getattr(value, "__module__", None) != module:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value) and value is not namespace:
            yield from _functions(value, module)


def test_no_function_takes_a_tolerance():
    found = []
    for info in pkgutil.iter_modules(etale_kit.__path__):
        module = importlib.import_module(f"etale_kit.{info.name}")
        for fn in _functions(module, module.__name__):
            for name in inspect.signature(fn).parameters:
                if name.endswith("tol") or name == "max_order":
                    found.append(f"{fn.__module__}.{fn.__qualname__}({name})")
    assert not found, found
