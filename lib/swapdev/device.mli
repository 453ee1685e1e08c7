(** Common swap-device interface.

    A device accepts 4 KB page reads/writes and models service time and
    queueing.  [submit] returns both the virtual completion time and the
    host CPU work the operation costs (interrupt handling for the SSD;
    the whole (de)compression for ZRAM, which runs on the faulting CPU
    in the kernel).

    An operation can fail: [status] distinguishes successful completions
    from transient errors (a retry may succeed — link resets, ECC
    recoveries) and permanent ones (the block is gone — media wear,
    controller death).  The physical device models ({!Ssd}, {!Zram})
    never fail; errors, stalls and latency stretches are injected by
    wrapping them in {!Faulty_device}, the one injector for static
    fault plans and chaos degrade windows alike. *)

type op = Read | Write

type error =
  | Transient  (** retrying the same operation may succeed *)
  | Permanent  (** the addressed block is unrecoverable *)

type status = Done | Failed of error

(** The outcome of the last operation.  A device owns one completion
    record and every [submit] fills it in and returns it, so a
    submission allocates nothing; read the fields before the next
    [submit] on the same device. *)
type completion = {
  mutable finish_ns : int;
      (** absolute virtual time the operation resolved — data available
          on [Done], error reported on [Failed] *)
  mutable cpu_ns : int;  (** host compute consumed by this operation *)
  mutable status : status;
}

val completion : unit -> completion
(** A fresh record for a device to own: [Done] at time 0. *)

type t = {
  name : string;
  submit : now:int -> op:op -> size_fraction:float -> completion;
      (** Returns the device's own completion record, refilled.
          [size_fraction] is the compressed-size fraction for
          compressing devices; plain block devices ignore it. *)
  reads : unit -> int;
  writes : unit -> int;
  busy_until : unit -> int;
      (** latest scheduled completion over all channels; an idleness
          probe for tests *)
}

val ok : completion -> bool
(** [status = Done]. *)
