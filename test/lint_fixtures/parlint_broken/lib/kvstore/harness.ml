type protocol = Raft | Multipaxos
type config = { batch_size : int }
