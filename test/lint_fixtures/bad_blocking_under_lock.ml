(* Deliberately-bad fixture for blocking-under-lock: the fiber parks
   on a scheduler wait while Lock_table ranges are held — directly,
   through a helper, and by queueing on a semaphore. *)

let wait_for iv = Sim.Ivar.read iv

let hold_and_wait locks owner ranges iv =
  if Lock_table.try_acquire locks ~owner ranges then begin
    let v = Sim.Ivar.read iv in (* expect: blocking-under-lock *)
    Lock_table.release locks owner;
    v
  end
  else wait_for iv

let hold_and_wait_deep locks owner ranges iv =
  if Lock_table.try_acquire locks ~owner ranges then
    wait_for iv (* expect: blocking-under-lock *)
  else 0

let hold_and_serialise locks owner ranges sem =
  if Lock_table.try_acquire locks ~owner ranges then begin
    let v = Sim.Semaphore.with_acquired sem (fun () -> 1) in (* expect: blocking-under-lock *)
    Lock_table.release locks owner;
    v
  end
  else 0
