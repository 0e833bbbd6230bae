"""attnatr: attention blocks on a small ResNet-18 for SAR target recognition.

The package is self-contained: a float64 autodiff tensor core, the layers a
ResNet-18 needs, SE / ECA / CBAM attention blocks, Grad-CAM saliency maps,
Phoenix-chip and synthetic-dataset IO, and an accuracy/robustness harness.
The package root re-exports nothing: import each name from its module
(``from attnatr.backbone import build_resnet18``).
"""
