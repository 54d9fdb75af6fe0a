% List builder: go(N, C) builds the list [N, N-1, ..., 1] and counts it.
% mk/2 is the constant-base-case + variable-recursive-case shape whose
% first argument alone makes every call determinate, so a run allocates
% a single choice point (at mk(0, _)) however long the list is.
%
%   ace_run --engine par -p 2 -O --par-and --stats examples/listbuild.pl 'go(20000, C)'

mk(0, []).
mk(N, [N|T]) :- N > 0, M is N-1, mk(M, T).

cnt([], 0).
cnt([_|T], C) :- cnt(T, C0), C is C0+1.

go(N, C) :- mk(N, L), cnt(L, C).
