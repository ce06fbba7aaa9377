"""Nuclear binding-energy regression with small MLPs and data augmentation."""

__version__ = "0.1.0"
