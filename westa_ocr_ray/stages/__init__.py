from .explode import make_explode  # noqa: F401
from .prepare import make_prepare  # noqa: F401
from .extract import ExtractModel  # noqa: F401
from .reassemble import reassemble_partition, make_part_reducer  # noqa: F401
