type config = { batch_size : int }
