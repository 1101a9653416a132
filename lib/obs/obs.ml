module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Progress = Scdb_progress.Progress
module Rng = Scdb_rng.Rng

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(*                                                                     *)
(* A context bundles the five per-run observability stores — telemetry *)
(* registry, trace span forest, log sink, progress bus and RNG lineage *)
(* table — into one value that a run installs, fills, and merges back  *)
(* into its parent.  The pre-context process globals survive as the    *)
(* [default] context, so every path that never creates a context       *)
(* behaves exactly as before.                                          *)
(* ------------------------------------------------------------------ *)

module Ctx = struct
  type t = {
    name : string;
    reg : Tel.Registry.t;
    forest : Trace.Forest.t;
    sink : Log.Sink.t;
    bus : Progress.Bus.t;
    prov : Rng.Provenance.Table.t;
  }

  (* Built at module initialization on the initial domain, before any
     context can have been installed, so the ambient stores really are
     the process defaults. *)
  let default =
    {
      name = "default";
      reg = Tel.Registry.default;
      forest = Trace.current_forest ();
      sink = Log.current_sink ();
      bus = Progress.current_bus ();
      prov = Rng.Provenance.current_table ();
    }

  let create ?(name = "ctx") ?ring_capacity () =
    {
      name;
      reg = Tel.Registry.create ();
      forest = Trace.Forest.create ();
      sink = Log.Sink.create ?ring_capacity ~parent:(Log.current_sink ()) ();
      bus = Progress.Bus.create ();
      prov = Rng.Provenance.Table.create ();
    }

  let registry c = c.reg
  let forest c = c.forest
  let sink c = c.sink
  let bus c = c.bus
  let prov c = c.prov

  let run c f =
    Tel.with_registry c.reg (fun () ->
        Trace.with_forest c.forest (fun () ->
            Log.with_sink c.sink (fun () ->
                Progress.with_bus c.bus (fun () ->
                    Rng.Provenance.with_table c.prov f))))

  let merge ~into src =
    if into != src then begin
      Tel.Registry.merge_into ~dst:into.reg src.reg;
      Trace.Forest.merge_into ~name:src.name ~dst:into.forest src.forest;
      Log.Sink.merge_into ~dst:into.sink src.sink;
      Progress.Bus.merge_into ~dst:into.bus src.bus;
      Rng.Provenance.Table.merge_into ~dst:into.prov src.prov
    end

  type mode = Seq | Domains

  let run_jobs ?(mode = Domains) ~name jobs f =
    let ctxs = Array.init jobs (fun i -> create ~name:(name i) ()) in
    let job i () = run ctxs.(i) (fun () -> f i) in
    let results =
      match mode with
      | Seq -> Array.init jobs (fun i -> job i ())
      | Domains -> Array.map Domain.join (Array.init jobs (fun i -> Domain.spawn (job i)))
    in
    Array.iter (merge ~into:default) ctxs;
    results
end
