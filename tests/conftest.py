"""Suite-wide settings: hypothesis draws the same examples on every run,
as the rest of the suite uses fixed seeds."""

try:
    from hypothesis import settings
except ImportError:  # the modules that use hypothesis fail on their own import
    pass
else:
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")
