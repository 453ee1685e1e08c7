type op = Read | Write

type error = Transient | Permanent

type status = Done | Failed of error

type completion = {
  mutable finish_ns : int;
  mutable cpu_ns : int;
  mutable status : status;
}

let completion () = { finish_ns = 0; cpu_ns = 0; status = Done }

type t = {
  name : string;
  submit : now:int -> op:op -> size_fraction:float -> completion;
  reads : unit -> int;
  writes : unit -> int;
  busy_until : unit -> int;
}

let ok completion = completion.status = Done
