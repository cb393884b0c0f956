from .cli import entry

entry()
