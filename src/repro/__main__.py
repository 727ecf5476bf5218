import sys
from repro.cli import main
sys.exit(main())
